#include "storage/disk_manager.h"

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/page.h"

namespace amdj::storage {
namespace {

void FillPage(char* page, char value) { std::memset(page, value, kPageSize); }

template <typename T>
class DiskManagerTest : public ::testing::Test {
 protected:
  DiskManagerTest() : disk_(Make()) {}

  static std::unique_ptr<T> Make();

  std::unique_ptr<T> disk_;
};

template <>
std::unique_ptr<InMemoryDiskManager> DiskManagerTest<
    InMemoryDiskManager>::Make() {
  return std::make_unique<InMemoryDiskManager>();
}

template <>
std::unique_ptr<FileDiskManager> DiskManagerTest<FileDiskManager>::Make() {
  const std::string path =
      ::testing::TempDir() + "/amdj_disk_test_" +
      std::to_string(reinterpret_cast<uintptr_t>(&path)) + ".db";
  auto dm = std::make_unique<FileDiskManager>(path);
  EXPECT_TRUE(dm->Ok());
  return dm;
}

using Implementations =
    ::testing::Types<InMemoryDiskManager, FileDiskManager>;
TYPED_TEST_SUITE(DiskManagerTest, Implementations);

TYPED_TEST(DiskManagerTest, RoundTripsPages) {
  const PageId a = this->disk_->AllocatePage();
  const PageId b = this->disk_->AllocatePage();
  EXPECT_NE(a, b);
  char w[kPageSize];
  char r[kPageSize];
  FillPage(w, 'A');
  ASSERT_TRUE(this->disk_->WritePage(a, w).ok());
  FillPage(w, 'B');
  ASSERT_TRUE(this->disk_->WritePage(b, w).ok());
  ASSERT_TRUE(this->disk_->ReadPage(a, r).ok());
  EXPECT_EQ(r[0], 'A');
  EXPECT_EQ(r[kPageSize - 1], 'A');
  ASSERT_TRUE(this->disk_->ReadPage(b, r).ok());
  EXPECT_EQ(r[100], 'B');
}

TYPED_TEST(DiskManagerTest, RejectsUnallocatedPages) {
  char buf[kPageSize];
  EXPECT_EQ(this->disk_->ReadPage(99, buf).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(this->disk_->WritePage(99, buf).code(), StatusCode::kOutOfRange);
}

TYPED_TEST(DiskManagerTest, FreeListReusesPages) {
  const PageId a = this->disk_->AllocatePage();
  this->disk_->FreePage(a);
  const PageId b = this->disk_->AllocatePage();
  EXPECT_EQ(a, b);
  EXPECT_EQ(this->disk_->stats().pages_allocated, 2u);
}

TYPED_TEST(DiskManagerTest, CountsReadsAndWrites) {
  char buf[kPageSize];
  FillPage(buf, 'x');
  const PageId a = this->disk_->AllocatePage();
  const PageId b = this->disk_->AllocatePage();
  ASSERT_TRUE(this->disk_->WritePage(a, buf).ok());
  ASSERT_TRUE(this->disk_->WritePage(b, buf).ok());
  ASSERT_TRUE(this->disk_->ReadPage(a, buf).ok());
  ASSERT_TRUE(this->disk_->ReadPage(b, buf).ok());
  ASSERT_TRUE(this->disk_->ReadPage(a, buf).ok());
  EXPECT_EQ(this->disk_->stats().page_writes, 2u);
  EXPECT_EQ(this->disk_->stats().page_reads, 3u);
}

TYPED_TEST(DiskManagerTest, ClassifiesSequentialVsRandom) {
  char buf[kPageSize];
  FillPage(buf, 'x');
  for (int i = 0; i < 8; ++i) this->disk_->AllocatePage();
  for (PageId p = 0; p < 8; ++p) {
    ASSERT_TRUE(this->disk_->WritePage(p, buf).ok());
  }
  // First write of a stream is "random", the following 7 sequential.
  EXPECT_EQ(this->disk_->stats().sequential_writes, 7u);
  EXPECT_EQ(this->disk_->stats().random_writes, 1u);
  ASSERT_TRUE(this->disk_->ReadPage(5, buf).ok());
  ASSERT_TRUE(this->disk_->ReadPage(6, buf).ok());
  ASSERT_TRUE(this->disk_->ReadPage(2, buf).ok());
  EXPECT_EQ(this->disk_->stats().sequential_reads, 1u);
  EXPECT_EQ(this->disk_->stats().random_reads, 2u);
}

// Regression: FreePage used to happily push the same id onto the free
// list twice, after which two AllocatePage calls handed the SAME page to
// two different owners (silent cross-component corruption). Duplicate
// frees are now rejected.
TYPED_TEST(DiskManagerTest, DoubleFreeIsRejected) {
  const PageId a = this->disk_->AllocatePage();
  const PageId b = this->disk_->AllocatePage();
  this->disk_->FreePage(a);
  this->disk_->FreePage(a);  // ignored (and logged), not double-queued
  const PageId c = this->disk_->AllocatePage();
  const PageId d = this->disk_->AllocatePage();
  EXPECT_EQ(c, a);
  EXPECT_NE(d, a) << "double free handed one page to two owners";
  EXPECT_NE(d, b);
  // Free -> reallocate -> free again is legal: rejection keys on the free
  // list's current content, not on history.
  this->disk_->FreePage(c);
  EXPECT_EQ(this->disk_->AllocatePage(), c);
}

// Freed pages are reused lowest id first, whatever order they were freed
// in, and only then is a fresh page appended. Reuse in descending order
// would make every spill write a backward seek, charged by the cost model
// at the random rate.
TYPED_TEST(DiskManagerTest, ReusesFreedPagesLowestIdFirst) {
  for (int i = 0; i < 10; ++i) this->disk_->AllocatePage();
  this->disk_->FreePage(9);
  this->disk_->FreePage(2);
  this->disk_->FreePage(5);
  EXPECT_EQ(this->disk_->AllocatePage(), 2u);
  EXPECT_EQ(this->disk_->AllocatePage(), 5u);
  EXPECT_EQ(this->disk_->AllocatePage(), 9u);
  EXPECT_EQ(this->disk_->AllocatePage(), 10u);
}

TEST(FileDiskManagerTest, UnwrittenAllocatedPageReadsAsZeros) {
  const std::string path = ::testing::TempDir() + "/amdj_zero_test.db";
  FileDiskManager disk(path);
  ASSERT_TRUE(disk.Ok());
  const PageId p = disk.AllocatePage();
  char buf[kPageSize];
  FillPage(buf, 'z');
  ASSERT_TRUE(disk.ReadPage(p, buf).ok());
  for (size_t i = 0; i < kPageSize; i += 512) EXPECT_EQ(buf[i], 0);
}

TEST(FaultInjectionTest, FailsReadsAfterBudget) {
  InMemoryDiskManager base;
  FaultInjectionDiskManager faulty(&base);
  char buf[kPageSize];
  FillPage(buf, 'q');
  const PageId p = faulty.AllocatePage();
  ASSERT_TRUE(faulty.WritePage(p, buf).ok());
  faulty.FailReadsAfter(2);
  EXPECT_TRUE(faulty.ReadPage(p, buf).ok());
  EXPECT_TRUE(faulty.ReadPage(p, buf).ok());
  EXPECT_EQ(faulty.ReadPage(p, buf).code(), StatusCode::kIOError);
  EXPECT_EQ(faulty.ReadPage(p, buf).code(), StatusCode::kIOError);
  faulty.Heal();
  EXPECT_TRUE(faulty.ReadPage(p, buf).ok());
}

TEST(FaultInjectionTest, FailsWritesAfterBudget) {
  InMemoryDiskManager base;
  FaultInjectionDiskManager faulty(&base);
  char buf[kPageSize];
  FillPage(buf, 'q');
  const PageId p = faulty.AllocatePage();
  faulty.FailWritesAfter(0);
  EXPECT_EQ(faulty.WritePage(p, buf).code(), StatusCode::kIOError);
  faulty.Heal();
  EXPECT_TRUE(faulty.WritePage(p, buf).ok());
}

// Regression: the failure countdowns were plain uint64_t, so concurrent
// queries hammering one faulty disk raced on the decrement (a TSan report,
// and a wrap-around past 0 turned "fail now" into "never fail"). The
// countdowns are atomics now; under T threads exactly `budget` operations
// may succeed after arming, never more.
TEST(FaultInjectionTest, CountdownIsExactUnderConcurrency) {
  InMemoryDiskManager base;
  FaultInjectionDiskManager faulty(&base);
  const PageId p = faulty.AllocatePage();
  char seed[kPageSize];
  FillPage(seed, 's');
  ASSERT_TRUE(faulty.WritePage(p, seed).ok());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  constexpr uint64_t kBudget = 137;  // < total ops: the race window matters
  faulty.FailReadsAfter(kBudget);
  std::atomic<uint64_t> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&faulty, &successes, p] {
      char buf[kPageSize];
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (faulty.ReadPage(p, buf).ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(successes.load(), kBudget);
  // And 0 stays 0 — no wrap-around to "never fail".
  char buf[kPageSize];
  EXPECT_EQ(faulty.ReadPage(p, buf).code(), StatusCode::kIOError);
  faulty.Heal();
  EXPECT_TRUE(faulty.ReadPage(p, buf).ok());
}

// Regression: stats() used to hand out a const reference to counters that
// ReadPage/WritePage mutate under the manager's lock — every read through
// it was a data race, and a reader could observe page_reads bumped before
// its sequential/random classification landed. It now returns a snapshot
// taken under the lock, so the classification invariant must hold in
// every snapshot, even mid-I/O.
TYPED_TEST(DiskManagerTest, StatsSnapshotIsConsistentDuringConcurrentIo) {
  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 400;
  std::vector<PageId> pages;
  pages.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    pages.push_back(this->disk_->AllocatePage());
  }

  std::atomic<int> running{kWriters};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, w, &pages, &running] {
      char buf[kPageSize];
      FillPage(buf, static_cast<char>('a' + w));
      for (int i = 0; i < kOpsPerWriter; ++i) {
        EXPECT_TRUE(this->disk_->WritePage(pages[w], buf).ok());
        EXPECT_TRUE(this->disk_->ReadPage(pages[w], buf).ok());
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  while (running.load(std::memory_order_acquire) > 0) {
    const DiskStats snapshot = this->disk_->stats();
    EXPECT_EQ(snapshot.sequential_reads + snapshot.random_reads,
              snapshot.page_reads);
    EXPECT_EQ(snapshot.sequential_writes + snapshot.random_writes,
              snapshot.page_writes);
    EXPECT_LE(snapshot.page_reads,
              static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  }
  for (std::thread& t : writers) t.join();

  const DiskStats final_stats = this->disk_->stats();
  EXPECT_EQ(final_stats.page_reads,
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(final_stats.page_writes,
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
}

}  // namespace
}  // namespace amdj::storage
