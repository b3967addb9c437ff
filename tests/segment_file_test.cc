#include "queue/segment_file.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"

namespace amdj::queue {
namespace {

struct Record {
  double key;
  uint64_t payload;
};

Status AppendRecord(SegmentFile* seg, const Record& r) {
  return seg->Append(&r, sizeof(r));
}

TEST(SegmentFileTest, AppendReadAllRoundTrip) {
  storage::InMemoryDiskManager disk;
  SegmentFile seg(&disk, nullptr);
  std::vector<Record> written;
  for (int i = 0; i < 1000; ++i) {
    Record r{static_cast<double>(i) * 0.5, static_cast<uint64_t>(i)};
    ASSERT_TRUE(AppendRecord(&seg, r).ok());
    written.push_back(r);
  }
  EXPECT_EQ(seg.count(), 1000u);
  std::vector<char> bytes;
  ASSERT_TRUE(seg.ReadAll(&bytes).ok());
  ASSERT_EQ(bytes.size(), 1000 * sizeof(Record));
  std::vector<Record> read(1000);
  std::memcpy(read.data(), bytes.data(), bytes.size());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(read[i].key, written[i].key);
    EXPECT_EQ(read[i].payload, written[i].payload);
  }
}

TEST(SegmentFileTest, PartialBufferIsIncludedInReadAll) {
  storage::InMemoryDiskManager disk;
  SegmentFile seg(&disk, nullptr);
  Record r{1.0, 42};
  ASSERT_TRUE(AppendRecord(&seg, r).ok());  // stays in the write buffer
  EXPECT_EQ(disk.stats().page_writes, 0u);
  std::vector<char> bytes;
  ASSERT_TRUE(seg.ReadAll(&bytes).ok());
  ASSERT_EQ(bytes.size(), sizeof(Record));
  Record back;
  std::memcpy(&back, bytes.data(), sizeof(back));
  EXPECT_EQ(back.payload, 42u);
}

TEST(SegmentFileTest, DropFreesPagesForReuse) {
  storage::InMemoryDiskManager disk;
  SegmentFile seg(&disk, nullptr);
  Record r{0, 0};
  for (int i = 0; i < 2000; ++i) {
    r.payload = static_cast<uint64_t>(i);
    ASSERT_TRUE(AppendRecord(&seg, r).ok());
  }
  const uint32_t pages_before = disk.PageCount();
  EXPECT_GT(pages_before, 0u);
  seg.Drop();
  EXPECT_EQ(seg.count(), 0u);
  // Freed pages are reused by the next allocation round.
  SegmentFile seg2(&disk, nullptr);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(AppendRecord(&seg2, r).ok());
  }
  EXPECT_EQ(disk.PageCount(), pages_before);
}

TEST(SegmentFileTest, CountsPageIoIntoStats) {
  storage::InMemoryDiskManager disk;
  JoinStats stats;
  SegmentFile seg(&disk, &stats);
  Record r{0, 0};
  const size_t per_page = storage::kPageSize / sizeof(Record);
  for (size_t i = 0; i < per_page * 3; ++i) {
    ASSERT_TRUE(AppendRecord(&seg, r).ok());
  }
  EXPECT_EQ(stats.queue_page_writes, 3u);
  std::vector<char> bytes;
  ASSERT_TRUE(seg.ReadAll(&bytes).ok());
  EXPECT_EQ(stats.queue_page_reads, 3u);
}

TEST(SegmentFileTest, MoveTransfersOwnership) {
  storage::InMemoryDiskManager disk;
  SegmentFile a(&disk, nullptr);
  Record r{3.5, 9};
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(AppendRecord(&a, r).ok());
  a.lower_bound = geom::KeyVal(7.0);
  SegmentFile b = std::move(a);
  EXPECT_EQ(b.count(), 500u);
  EXPECT_EQ(b.lower_bound, geom::KeyVal(7.0));
  std::vector<char> bytes;
  ASSERT_TRUE(b.ReadAll(&bytes).ok());
  EXPECT_EQ(bytes.size(), 500 * sizeof(Record));
  // The moved-from object is safely destructible (no double free): scope
  // exit exercises both destructors.
}

TEST(SegmentFileTest, ReadFailurePropagates) {
  storage::InMemoryDiskManager base;
  storage::FaultInjectionDiskManager faulty(&base);
  SegmentFile seg(&faulty, nullptr);
  Record r{0, 0};
  const size_t per_page = storage::kPageSize / sizeof(Record);
  for (size_t i = 0; i < per_page + 1; ++i) {
    ASSERT_TRUE(AppendRecord(&seg, r).ok());
  }
  faulty.FailReadsAfter(0);
  std::vector<char> bytes;
  EXPECT_EQ(seg.ReadAll(&bytes).code(), StatusCode::kIOError);
}

// Records whose size does not divide the page size straddle page
// boundaries: the stream is packed, every flushed page is full, and the
// read-back is the exact byte sequence appended.
TEST(SegmentFileTest, RecordsStraddlePageBoundaries) {
  storage::InMemoryDiskManager disk;
  JoinStats stats;
  SegmentFile seg(&disk, &stats);
  constexpr size_t kRecordSize = 17;
  std::vector<char> expected;
  char record[kRecordSize];
  for (uint32_t i = 0; i < 700; ++i) {
    for (size_t b = 0; b < kRecordSize; ++b) {
      record[b] = static_cast<char>(i * 31 + b);
    }
    ASSERT_TRUE(seg.Append(record, kRecordSize).ok());
    expected.insert(expected.end(), record, record + kRecordSize);
  }
  // 700 * 17 = 11,900 bytes: two full pages and a 3,708-byte tail.
  EXPECT_EQ(seg.count(), 700u);
  EXPECT_EQ(seg.byte_size(), expected.size());
  EXPECT_EQ(seg.pages().size(), 2u);
  EXPECT_EQ(seg.buffered_bytes(), expected.size() - 2 * storage::kPageSize);
  EXPECT_EQ(stats.queue_page_writes, 2u);
  std::vector<char> bytes;
  ASSERT_TRUE(seg.ReadAll(&bytes).ok());
  EXPECT_EQ(bytes, expected);
  EXPECT_EQ(stats.queue_page_reads, 2u);
}

// One batch append writes every page it fills and stages only the tail,
// whatever the record count; a segment with nothing buffered reads back
// without touching its (empty) write buffer.
TEST(SegmentFileTest, BatchAppendFillsWholePages) {
  storage::InMemoryDiskManager disk;
  SegmentFile seg(&disk, nullptr);
  std::vector<char> batch(2 * storage::kPageSize);
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<char>(i);
  ASSERT_TRUE(seg.Append(batch.data(), batch.size(), 128).ok());
  EXPECT_EQ(seg.count(), 128u);
  EXPECT_EQ(seg.pages().size(), 2u);
  EXPECT_EQ(seg.buffered_bytes(), 0u);
  std::vector<char> bytes;
  ASSERT_TRUE(seg.ReadAll(&bytes).ok());
  EXPECT_EQ(bytes, batch);
}

}  // namespace
}  // namespace amdj::queue
