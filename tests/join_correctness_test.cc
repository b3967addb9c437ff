#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

using test::BruteForceDistances;
using test::ExpectMatchesBruteForce;
using test::ExpectNoDuplicates;
using test::JoinFixture;
using test::MakeFixture;

workload::Dataset MakeData(const std::string& kind, uint64_t n,
                           uint64_t seed) {
  const geom::Rect universe(0, 0, 10000, 10000);
  if (kind == "uniform") return workload::UniformPoints(n, seed, universe);
  if (kind == "rects") {
    return workload::UniformRects(n, 50.0, seed, universe);
  }
  if (kind == "clusters") {
    return workload::GaussianClusters(n, 8, 0.03, seed, universe);
  }
  if (kind == "zipf") return workload::ZipfSkewedPoints(n, 0.8, seed, universe);
  ADD_FAILURE() << "unknown kind " << kind;
  return {};
}

// ---------------------------------------------------------------------------
// Parameterized correctness: every KDJ algorithm x data distribution x k
// must return exactly the k smallest distances (verified against brute
// force), sorted, without duplicate pairs.

using KdjCase = std::tuple<KdjAlgorithm, std::string, uint64_t>;

class KdjCorrectnessTest : public ::testing::TestWithParam<KdjCase> {};

TEST_P(KdjCorrectnessTest, MatchesBruteForce) {
  const auto [algorithm, kind, k] = GetParam();
  const auto r_data = MakeData(kind, 300, 1001);
  const auto s_data = MakeData(kind, 200, 2002);
  JoinFixture f = MakeFixture(r_data, s_data, /*fanout=*/8);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);

  // Force the spilling paths too. A spill page holds 240 object pairs, so
  // page I/O needs segments that large: depending on the data and k, the
  // queue reaches it at a tiny budget (small piles, many splits) or a
  // larger one (piles of one memory capacity each), so run several.
  for (const size_t memory_bytes : {2 * 1024, 16 * 1024, 32 * 1024}) {
    SCOPED_TRACE(testing::Message() << "queue memory " << memory_bytes);
    JoinOptions options;
    options.queue_disk = f.queue_disk.get();
    options.queue_memory_bytes = memory_bytes;
    JoinStats stats;
    auto result =
        RunKDistanceJoin(*f.r, *f.s, k, algorithm, options, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectMatchesBruteForce(*result, brute, k, f.r_objects, f.s_objects);
    ExpectNoDuplicates(*result);
    EXPECT_EQ(stats.pairs_produced, result->size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndData, KdjCorrectnessTest,
    ::testing::Combine(
        ::testing::Values(KdjAlgorithm::kHsKdj, KdjAlgorithm::kBKdj,
                          KdjAlgorithm::kAmKdj, KdjAlgorithm::kSjSort),
        ::testing::Values("uniform", "rects", "clusters", "zipf"),
        ::testing::Values(uint64_t{1}, uint64_t{10}, uint64_t{500},
                          uint64_t{5000})),
    [](const ::testing::TestParamInfo<KdjCase>& info) {
      std::string name = ToString(std::get<0>(info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_" + std::get<1>(info.param) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Edge cases.

TEST(KdjEdgeTest, EmptyInputsYieldNoPairs) {
  const auto empty = workload::UniformPoints(0, 1);
  const auto some = workload::UniformPoints(10, 2);
  JoinFixture f = MakeFixture(empty, some);
  for (const auto algorithm :
       {KdjAlgorithm::kHsKdj, KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj,
        KdjAlgorithm::kSjSort}) {
    auto result =
        RunKDistanceJoin(*f.r, *f.s, 5, algorithm, JoinOptions{}, nullptr);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty()) << ToString(algorithm);
  }
}

TEST(KdjEdgeTest, KZeroYieldsNoPairs) {
  const auto data = workload::UniformPoints(20, 3);
  JoinFixture f = MakeFixture(data, data);
  auto result = RunKDistanceJoin(*f.r, *f.s, 0, KdjAlgorithm::kBKdj,
                                 JoinOptions{}, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(KdjEdgeTest, KLargerThanProductReturnsEverything) {
  const auto r_data = workload::UniformPoints(12, 4);
  const auto s_data = workload::UniformPoints(9, 5);
  JoinFixture f = MakeFixture(r_data, s_data, /*fanout=*/4);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  for (const auto algorithm :
       {KdjAlgorithm::kHsKdj, KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj,
        KdjAlgorithm::kSjSort}) {
    auto result = RunKDistanceJoin(*f.r, *f.s, 1000, algorithm,
                                   JoinOptions{}, nullptr);
    ASSERT_TRUE(result.ok()) << ToString(algorithm);
    ExpectMatchesBruteForce(*result, brute, 1000, f.r_objects, f.s_objects)
        ;
    EXPECT_EQ(result->size(), 12u * 9u);
  }
}

TEST(KdjEdgeTest, SingleObjectEachSide) {
  workload::Dataset r_data, s_data;
  r_data.objects = {geom::Rect(0, 0, 1, 1)};
  s_data.objects = {geom::Rect(4, 4, 5, 5)};
  JoinFixture f = MakeFixture(r_data, s_data);
  for (const auto algorithm :
       {KdjAlgorithm::kHsKdj, KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj}) {
    auto result =
        RunKDistanceJoin(*f.r, *f.s, 1, algorithm, JoinOptions{}, nullptr);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), 1u);
    EXPECT_NEAR((*result)[0].distance, std::sqrt(18.0), 1e-12);
  }
}

TEST(KdjEdgeTest, IdenticalDatasetsContainZeroDistancePairs) {
  const auto data = workload::UniformPoints(50, 6);
  JoinFixture f = MakeFixture(data, data, /*fanout=*/6);
  // Self-join: the 50 identical pairs have distance 0.
  auto result = RunKDistanceJoin(*f.r, *f.s, 50, KdjAlgorithm::kAmKdj,
                                 JoinOptions{}, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 50u);
  for (const auto& p : *result) EXPECT_EQ(p.distance, 0.0);
}

TEST(KdjEdgeTest, AllObjectsAtSamePoint) {
  workload::Dataset data;
  for (int i = 0; i < 40; ++i) {
    data.objects.push_back(geom::Rect(7, 7, 7, 7));
  }
  JoinFixture f = MakeFixture(data, data, /*fanout=*/5);
  for (const auto algorithm :
       {KdjAlgorithm::kHsKdj, KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj}) {
    auto result = RunKDistanceJoin(*f.r, *f.s, 100, algorithm, JoinOptions{},
                                   nullptr);
    ASSERT_TRUE(result.ok()) << ToString(algorithm);
    EXPECT_EQ(result->size(), 100u);
    for (const auto& p : *result) EXPECT_EQ(p.distance, 0.0);
  }
}

TEST(KdjEdgeTest, DisjointDatasetsWithGap) {
  const geom::Rect left(0, 0, 100, 100);
  const geom::Rect right(5000, 5000, 5100, 5100);
  const auto r_data = workload::UniformPoints(60, 7, left);
  const auto s_data = workload::UniformPoints(40, 8, right);
  JoinFixture f = MakeFixture(r_data, s_data, /*fanout=*/8);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  for (const auto algorithm :
       {KdjAlgorithm::kHsKdj, KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj,
        KdjAlgorithm::kSjSort}) {
    auto result = RunKDistanceJoin(*f.r, *f.s, 25, algorithm, JoinOptions{},
                                   nullptr);
    ASSERT_TRUE(result.ok()) << ToString(algorithm);
    ExpectMatchesBruteForce(*result, brute, 25, f.r_objects, f.s_objects);
  }
}

TEST(KdjEdgeTest, AsymmetricTreeHeights) {
  // A large R against a tiny S forces node/object mixed pairs.
  const auto r_data = workload::UniformPoints(2000, 9,
                                              geom::Rect(0, 0, 1000, 1000));
  workload::Dataset s_data;
  s_data.objects = {geom::Rect(500, 500, 501, 501),
                    geom::Rect(100, 900, 101, 901)};
  JoinFixture f = MakeFixture(r_data, s_data, /*fanout=*/6);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  for (const auto algorithm :
       {KdjAlgorithm::kHsKdj, KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj}) {
    auto result = RunKDistanceJoin(*f.r, *f.s, 100, algorithm, JoinOptions{},
                                   nullptr);
    ASSERT_TRUE(result.ok()) << ToString(algorithm);
    ExpectMatchesBruteForce(*result, brute, 100, f.r_objects, f.s_objects);
  }
}

TEST(KdjEdgeTest, InsertBuiltTreesJoinIdentically) {
  const auto r_data = MakeData("clusters", 250, 11);
  const auto s_data = MakeData("uniform", 150, 12);
  JoinFixture f = MakeFixture(r_data, s_data, /*fanout=*/8,
                              /*buffer_pages=*/64, /*insert_build=*/true);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  auto result = RunKDistanceJoin(*f.r, *f.s, 200, KdjAlgorithm::kAmKdj,
                                 JoinOptions{}, nullptr);
  ASSERT_TRUE(result.ok());
  ExpectMatchesBruteForce(*result, brute, 200, f.r_objects, f.s_objects);
}

// ---------------------------------------------------------------------------
// Sweep-strategy equivalence: optimization changes cost, never results.

class SweepStrategyTest : public ::testing::TestWithParam<SweepStrategy> {};

TEST_P(SweepStrategyTest, StrategyDoesNotChangeResults) {
  const auto r_data = MakeData("clusters", 300, 21);
  const auto s_data = MakeData("rects", 200, 22);
  JoinFixture f = MakeFixture(r_data, s_data, /*fanout=*/8);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  options.sweep = GetParam();
  for (const auto algorithm : {KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj}) {
    auto result =
        RunKDistanceJoin(*f.r, *f.s, 400, algorithm, options, nullptr);
    ASSERT_TRUE(result.ok());
    ExpectMatchesBruteForce(*result, brute, 400, f.r_objects, f.s_objects);
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, SweepStrategyTest,
                         ::testing::Values(SweepStrategy::kOptimized,
                                           SweepStrategy::kFixedXForward,
                                           SweepStrategy::kAxisOnly,
                                           SweepStrategy::kDirectionOnly));

// ---------------------------------------------------------------------------
// Distance-queue policy ablation must not change results either.

TEST(DistanceQueuePolicyTest, AllPairsPolicyIsCorrect) {
  const auto r_data = MakeData("uniform", 300, 31);
  const auto s_data = MakeData("uniform", 200, 32);
  JoinFixture f = MakeFixture(r_data, s_data, /*fanout=*/8);
  const auto brute = BruteForceDistances(f.r_objects, f.s_objects);
  JoinOptions options;
  options.distance_queue_policy = DistanceQueuePolicy::kAllPairs;
  for (const auto algorithm :
       {KdjAlgorithm::kHsKdj, KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj}) {
    auto result =
        RunKDistanceJoin(*f.r, *f.s, 333, algorithm, options, nullptr);
    ASSERT_TRUE(result.ok()) << ToString(algorithm);
    ExpectMatchesBruteForce(*result, brute, 333, f.r_objects, f.s_objects);
  }
}

}  // namespace
}  // namespace amdj::core
