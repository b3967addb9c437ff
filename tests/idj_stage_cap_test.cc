// AM-IDJ stage cap: every estimated stage shrinks its eDmax to the m-th
// smallest key among the object pairs it has pushed. These tests run on
// Zipf-skewed points, where the Eq. 3 estimate overshoots, so the cap
// provably binds (a "stage_clamp" cutoff event is recorded), and compare
// the drained output against a brute-force oracle.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_report.h"
#include "core/amidj.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

using geom::Metric;
using geom::Rect;

bool RankedLess(const ResultPair& a, const ResultPair& b) {
  return std::tie(a.distance, a.r_id, a.s_id) <
         std::tie(b.distance, b.r_id, b.s_id);
}

/// Every admissible pair under `options` (metric, windows, self-pair
/// exclusion), sorted by (distance, r_id, s_id).
std::vector<ResultPair> BruteForce(const test::JoinFixture& f,
                                   const JoinOptions& options) {
  std::vector<ResultPair> out;
  for (uint32_t i = 0; i < f.r_objects.size(); ++i) {
    const Rect& a = f.r_objects[i];
    if (options.r_window && !a.Intersects(*options.r_window)) continue;
    for (uint32_t j = 0; j < f.s_objects.size(); ++j) {
      const Rect& b = f.s_objects[j];
      if (options.s_window && !b.Intersects(*options.s_window)) continue;
      if (options.exclude_same_id && i == j) continue;
      out.push_back({geom::MinDistance(a, b, options.metric).raw(), i, j});
    }
  }
  std::sort(out.begin(), out.end(), RankedLess);
  return out;
}

/// `results` must hold the oracle's first results.size() distances in
/// order, with each tie plateau made of exactly the oracle's pairs (the
/// last plateau may be cut short: its pairs must be a subset).
void ExpectSameRanking(const std::vector<ResultPair>& results,
                       const std::vector<ResultPair>& brute) {
  ASSERT_LE(results.size(), brute.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].distance, brute[i].distance) << "rank " << i;
  }
  if (results.empty()) return;
  std::vector<ResultPair> sorted = results;
  std::sort(sorted.begin(), sorted.end(), RankedLess);
  const double last = sorted.back().distance;
  size_t full = 0;
  while (full < sorted.size() && sorted[full].distance < last) {
    EXPECT_EQ(sorted[full].r_id, brute[full].r_id) << "rank " << full;
    EXPECT_EQ(sorted[full].s_id, brute[full].s_id) << "rank " << full;
    ++full;
  }
  const auto plateau_end = std::upper_bound(
      brute.begin() + static_cast<std::ptrdiff_t>(full), brute.end(),
      ResultPair{last, UINT32_MAX, UINT32_MAX}, RankedLess);
  EXPECT_TRUE(std::includes(
      brute.begin() + static_cast<std::ptrdiff_t>(full), plateau_end,
      sorted.begin() + static_cast<std::ptrdiff_t>(full), sorted.end(),
      RankedLess))
      << "last plateau holds a pair the oracle does not";
  test::ExpectNoDuplicates(results);
}

std::vector<ResultPair> DrainAll(AmIdjCursor& cursor) {
  std::vector<ResultPair> out;
  ResultPair pair;
  bool done = false;
  while (true) {
    EXPECT_TRUE(cursor.Next(&pair, &done).ok());
    if (done) break;
    out.push_back(pair);
  }
  return out;
}

bool Clamped(const RunReport& report) {
  const auto& points = report.cutoff_trajectory();
  return std::any_of(points.begin(), points.end(),
                     [](const RunReport::CutoffPoint& p) {
                       return p.label == "stage_clamp";
                     });
}

struct CapCase {
  std::string name;
  Metric metric = Metric::kL2;
  bool self_join = false;
  bool windows = false;
  bool duplicates = false;  ///< Every object at one point: one plateau.
  uint64_t initial_k = 16;
  uint64_t hint = 0;        ///< 0 = no PrefetchHint.
};

void PrintTo(const CapCase& c, std::ostream* os) { *os << c.name; }

class StageCapTest : public ::testing::TestWithParam<CapCase> {};

TEST_P(StageCapTest, CapBindsAndOutputMatchesBruteForce) {
  const CapCase& c = GetParam();
  const Rect uni(0, 0, 10000, 10000);
  workload::Dataset r_data;
  workload::Dataset s_data;
  if (c.duplicates) {
    r_data.objects.assign(70, Rect::FromPoint(geom::Point(500, 500)));
    s_data.objects.assign(50, Rect::FromPoint(geom::Point(500, 500)));
  } else {
    r_data = workload::ZipfSkewedPoints(320, 0.9, 71, uni);
    s_data = c.self_join ? r_data
                         : workload::ZipfSkewedPoints(240, 0.9, 72, uni);
  }
  const test::JoinFixture f = test::MakeFixture(r_data, s_data, 8);

  JoinOptions options;
  options.metric = c.metric;
  options.exclude_same_id = c.self_join;
  options.idj_initial_k = c.initial_k;
  if (c.windows) {
    options.r_window = Rect(0, 0, 6000, 9000);
    options.s_window = Rect(0, 0, 9000, 4000);
  }
  RunReport report;
  options.report = &report;
  const std::vector<ResultPair> brute = BruteForce(f, options);

  JoinStats stats;
  AmIdjCursor cursor(*f.r, *f.s, options, &stats);
  if (c.hint != 0) cursor.PrefetchHint(c.hint);
  const std::vector<ResultPair> results = DrainAll(cursor);
  report.Finish(stats);
  // Deferred pairs re-enter only a stage that can admit one of their pruned
  // children, and a stage never starts with nothing to do.
  for (const RunReport::Phase& phase : report.phases()) {
    EXPECT_GT(phase.delta.node_expansions + phase.delta.pairs_produced, 0u)
        << phase.name;
  }
  ASSERT_EQ(results.size(), brute.size());  // exhausts exactly the product
  ExpectSameRanking(results, brute);
  EXPECT_TRUE(Clamped(report)) << "the stage cap never bound";
  // On the plateau the cap clamps to the one distance, which still admits
  // every pair; elsewhere the clamped stage ends early.
  if (!c.duplicates) {
    EXPECT_GT(cursor.stage_count(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zipf, StageCapTest,
    ::testing::Values(
        CapCase{"L2"}, CapCase{"L1", Metric::kL1},
        CapCase{"LInf", Metric::kLInf},
        CapCase{"L2Hint", Metric::kL2, false, false, false, 16, 300},
        CapCase{"L1Hint", Metric::kL1, false, false, false, 16, 300},
        CapCase{"LInfHint", Metric::kLInf, false, false, false, 16, 300},
        CapCase{"SelfJoin", Metric::kL2, true},
        CapCase{"SelfJoinHint", Metric::kL2, true, false, false, 16, 300},
        CapCase{"Windows", Metric::kL2, false, true},
        CapCase{"WindowsHint", Metric::kL2, false, true, false, 16, 300},
        CapCase{"DuplicatePlateau", Metric::kL2, false, false, true},
        CapCase{"DuplicatePlateauHint", Metric::kL2, false, false, true, 16,
                200},
        CapCase{"InitialK1", Metric::kL2, false, false, false, 1},
        CapCase{"InitialK1Hint", Metric::kL2, false, false, false, 1, 50}),
    [](const auto& info) { return info.param.name; });

// Once the queue drains, the next stage reaches at least the nearest pruned
// child, however far it lies: no stage starts with nothing to recover.
TEST(StageCapTest, DrainedQueueJumpsToNearestDeferredPair) {
  const workload::Dataset r_data =
      workload::UniformPoints(60, 79, Rect(0, 0, 100, 100));
  workload::Dataset s_data =
      workload::UniformPoints(40, 80, Rect(0, 0, 100, 100));
  const workload::Dataset far =
      workload::UniformPoints(8, 81, Rect(9000, 9000, 9100, 9100));
  s_data.objects.insert(s_data.objects.end(), far.objects.begin(),
                        far.objects.end());
  const test::JoinFixture f = test::MakeFixture(r_data, s_data, 8);
  JoinOptions options;
  options.idj_initial_k = 16;
  RunReport report;
  options.report = &report;
  JoinStats stats;
  AmIdjCursor cursor(*f.r, *f.s, options, &stats);
  const std::vector<ResultPair> results = DrainAll(cursor);
  report.Finish(stats);
  options.report = nullptr;
  ExpectSameRanking(results, BruteForce(f, options));
  EXPECT_EQ(results.size(), f.r_objects.size() * f.s_objects.size());
  for (const RunReport::Phase& phase : report.phases()) {
    EXPECT_GT(phase.delta.node_expansions + phase.delta.pairs_produced, 0u)
        << phase.name;
  }
}

// Prefix reads (the usual cursor use): a capped stage stops early, and the
// pairs it emits are still the oracle's.
TEST(StageCapTest, PrefixesMatchBruteForce) {
  const Rect uni(0, 0, 10000, 10000);
  const test::JoinFixture f =
      test::MakeFixture(workload::ZipfSkewedPoints(320, 0.9, 73, uni),
                        workload::ZipfSkewedPoints(240, 0.9, 74, uni), 8);
  JoinOptions options;
  options.idj_initial_k = 16;
  const std::vector<ResultPair> brute = BruteForce(f, options);
  for (const uint64_t k : {1u, 17u, 64u, 65u, 500u, 4000u}) {
    RunReport report;
    options.report = &report;
    AmIdjCursor cursor(*f.r, *f.s, options, nullptr);
    std::vector<ResultPair> results;
    ResultPair pair;
    bool done = false;
    while (results.size() < k) {
      ASSERT_TRUE(cursor.Next(&pair, &done).ok());
      ASSERT_FALSE(done);
      results.push_back(pair);
    }
    ExpectSameRanking(results, brute);
    if (k >= 64) {
      EXPECT_TRUE(Clamped(report)) << "k=" << k;
    }
  }
}

// Huge targets saturate the cap size instead of wrapping into a small m
// (which would clamp a stage), and nothing is reserved for them.
TEST(StageCapTest, HugeTargetsSaturateWithoutWrapOrAllocation) {
  const Rect uni(0, 0, 10000, 10000);
  const test::JoinFixture f =
      test::MakeFixture(workload::ZipfSkewedPoints(60, 0.9, 75, uni),
                        workload::ZipfSkewedPoints(50, 0.9, 76, uni), 8);
  JoinOptions base;
  const std::vector<ResultPair> brute = BruteForce(f, base);
  // 2^62 + 1 wraps to m = 4 under unchecked 4 * k arithmetic.
  const uint64_t wraps = (uint64_t{1} << 62) + 1;
  for (const uint64_t hint : {UINT64_MAX, UINT64_MAX / 2, wraps}) {
    RunReport report;
    JoinOptions options = base;
    options.report = &report;
    AmIdjCursor cursor(*f.r, *f.s, options, nullptr);
    cursor.PrefetchHint(hint);
    const std::vector<ResultPair> results = DrainAll(cursor);
    ASSERT_EQ(results.size(), brute.size()) << "hint " << hint;
    ExpectSameRanking(results, brute);
    EXPECT_FALSE(Clamped(report)) << "hint " << hint;
  }
  for (const uint64_t initial_k : {UINT64_MAX, wraps}) {
    RunReport report;
    JoinOptions options = base;
    options.idj_initial_k = initial_k;
    options.report = &report;
    AmIdjCursor cursor(*f.r, *f.s, options, nullptr);
    const std::vector<ResultPair> results = DrainAll(cursor);
    ASSERT_EQ(results.size(), brute.size()) << "initial_k " << initial_k;
    ExpectSameRanking(results, brute);
    EXPECT_FALSE(Clamped(report)) << "initial_k " << initial_k;
  }
}

// Forced cutoffs are exact figure inputs: a forced stage is never capped.
TEST(StageCapTest, ForcedStagesAreNeverCapped) {
  const Rect uni(0, 0, 10000, 10000);
  const test::JoinFixture f =
      test::MakeFixture(workload::ZipfSkewedPoints(320, 0.9, 77, uni),
                        workload::ZipfSkewedPoints(240, 0.9, 78, uni), 8);
  JoinOptions options;
  options.idj_initial_k = 16;
  const std::vector<ResultPair> brute = BruteForce(f, options);
  const double far = brute.back().distance;  // admits the whole product

  RunReport report;
  options.report = &report;
  AmIdjCursor cursor(*f.r, *f.s, options, nullptr);
  cursor.ForceNextStageEdmax(geom::DistVal(far));
  const std::vector<ResultPair> results = DrainAll(cursor);
  ExpectSameRanking(results, brute);
  EXPECT_EQ(results.size(), brute.size());
  EXPECT_FALSE(Clamped(report));
  EXPECT_EQ(cursor.stage_count(), 1u);

  RunReport forced_report;
  options.report = &forced_report;
  options.forced_edmax = geom::DistVal(far);
  AmIdjCursor forced(*f.r, *f.s, options, nullptr);
  ExpectSameRanking(DrainAll(forced), brute);
  EXPECT_FALSE(Clamped(forced_report));
}

}  // namespace
}  // namespace amdj::core
