// Pinned work counters on a spilling fixture. Every algorithm that runs on
// the hybrid main queue must return the oracle's pairs with its queue
// spilling to disk, and the work it does to get there — node accesses,
// distance computations, main-queue insertions, splits and swap-ins — is
// pinned to exact values. How the queue encodes a spilled pile changes its
// page counts, never these: a swap-in must rebuild the same entries in the
// same order.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

constexpr uint64_t kPairs = 3000;

struct Pinned {
  const char* name;
  bool incremental;
  KdjAlgorithm kdj;
  IdjAlgorithm idj;
  uint64_t node_accesses;
  uint64_t distance_computations;
  uint64_t main_queue_insertions;
  uint64_t queue_splits;
  uint64_t queue_swapins;
};

test::JoinFixture MakeSpillFixture() {
  const geom::Rect universe(0, 0, 10000, 10000);
  return test::MakeFixture(workload::UniformPoints(1200, 31, universe),
                           workload::UniformRects(900, 40.0, 32, universe),
                           /*fanout=*/16, /*buffer_pages=*/32);
}

std::vector<ResultPair> RunJoin(const Pinned& p, test::JoinFixture* f,
                                const JoinOptions& options,
                                JoinStats* stats) {
  if (!p.incremental) {
    auto result = RunKDistanceJoin(*f->r, *f->s, kPairs, p.kdj, options,
                                   stats);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : std::vector<ResultPair>{};
  }
  std::vector<ResultPair> out;
  auto cursor = OpenIncrementalJoin(*f->r, *f->s, p.idj, options, stats);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return out;
  ResultPair pair;
  bool done = false;
  while (out.size() < kPairs) {
    const Status status = (*cursor)->Next(&pair, &done);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok() || done) break;
    out.push_back(pair);
  }
  return out;
}

class SpillCountersTest : public ::testing::TestWithParam<Pinned> {};

TEST_P(SpillCountersTest, MatchOracleAndPinnedWork) {
  const Pinned& p = GetParam();
  test::JoinFixture f = MakeSpillFixture();

  // The oracle: brute force, and the same algorithm with no spill disk.
  const auto brute = test::BruteForceDistances(f.r_objects, f.s_objects);
  ASSERT_TRUE(f.pool->Clear().ok());
  const std::vector<ResultPair> in_memory =
      RunJoin(p, &f, JoinOptions(), nullptr);

  JoinOptions options;
  options.queue_disk = f.queue_disk.get();
  options.queue_memory_bytes = 32 * 1024;
  JoinStats stats;
  ASSERT_TRUE(f.pool->Clear().ok());
  const std::vector<ResultPair> spilled = RunJoin(p, &f, options, &stats);

  test::ExpectMatchesBruteForce(spilled, brute, kPairs, f.r_objects,
                                f.s_objects);
  test::ExpectNoDuplicates(spilled);
  ASSERT_EQ(spilled.size(), in_memory.size());
  for (size_t i = 0; i < spilled.size(); ++i) {
    ASSERT_EQ(spilled[i], in_memory[i]) << "rank " << i;
  }

  // The fixture must really spill, or the pins say nothing about swap-in.
  EXPECT_GT(stats.queue_page_writes, 0u);
  EXPECT_GT(stats.queue_page_reads, 0u);
  EXPECT_EQ(stats.node_accesses, p.node_accesses);
  EXPECT_EQ(stats.real_distance_computations, p.distance_computations);
  EXPECT_EQ(stats.main_queue_insertions, p.main_queue_insertions);
  EXPECT_EQ(stats.queue_splits, p.queue_splits);
  EXPECT_EQ(stats.queue_swapins, p.queue_swapins);
}

// Values measured with verbatim-record spilling (one PairEntry per
// 104-byte record), before spilled object pairs were shortened.
INSTANTIATE_TEST_SUITE_P(
    Algorithms, SpillCountersTest,
    ::testing::Values(
        Pinned{"HSKDJ", false, KdjAlgorithm::kHsKdj, IdjAlgorithm::kHsIdj,
               2246, 30991, 11610, 2, 30},
        Pinned{"BKDJ", false, KdjAlgorithm::kBKdj, IdjAlgorithm::kHsIdj,
               786, 19332, 11657, 1, 25},
        Pinned{"AMKDJ", false, KdjAlgorithm::kAmKdj, IdjAlgorithm::kHsIdj,
               786, 11375, 7277, 1, 25},
        Pinned{"HSIDJ", true, KdjAlgorithm::kHsKdj, IdjAlgorithm::kHsIdj,
               2246, 30991, 30992, 2, 30},
        Pinned{"AMIDJ", true, KdjAlgorithm::kHsKdj, IdjAlgorithm::kAmIdj,
               786, 13423, 4957, 1, 25}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace amdj::core
