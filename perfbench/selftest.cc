// Tests for the benchmark's own arithmetic: the tail-percentile rule, span
// self time, failure accounting and the metric-name character set.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bench_math.h"
#include "spans.h"

namespace amdj::perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailRule, PicksHighestPercentileWithTenSamplesBeyond) {
  // 100 samples: p99 leaves 1 beyond, p90 leaves exactly 10.
  TailChoice t = SelectTail(Ramp(100));
  EXPECT_EQ(t.per_mille, 900u);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.value, 90.0);

  // 1000 samples: p99 leaves 10.
  t = SelectTail(Ramp(1000));
  EXPECT_EQ(t.per_mille, 990u);
  EXPECT_EQ(t.value, 990.0);

  // 10000 samples: p99.9 leaves 10.
  t = SelectTail(Ramp(10000));
  EXPECT_EQ(t.per_mille, 999u);
  EXPECT_EQ(t.value, 9990.0);

  // 99 samples: p90 would leave 9, so the rule falls back to p75.
  t = SelectTail(Ramp(99));
  EXPECT_EQ(t.per_mille, 750u);
  EXPECT_GE(t.beyond, 10u);

  // Too few for anything: p50.
  t = SelectTail(Ramp(7));
  EXPECT_EQ(t.per_mille, 500u);
  EXPECT_EQ(t.value, 4.0);
}

TEST(TailRule, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = Ramp(200);
  std::vector<double> reversed(v.rbegin(), v.rend());
  EXPECT_EQ(SelectTail(v).value, SelectTail(reversed).value);
}

TEST(Percentiles, MedianAndNearestRank) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_TRUE(std::isnan(Median({})));
  EXPECT_EQ(NearestRankPercentile(Ramp(10), 500), 5.0);
  EXPECT_EQ(NearestRankPercentile(Ramp(10), 999), 10.0);
  EXPECT_EQ(SamplesBeyond(0, 900), 0u);
}

TEST(Percentiles, MeanPerSlot) {
  // Two passes over a batch of three, plus one request of a third pass.
  const std::vector<double> v = {1, 10, 100, 3, 20, 300, 5};
  const std::vector<double> m = MeanPerSlot(v, 3);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m[0], 3.0);
  EXPECT_DOUBLE_EQ(m[1], 15.0);
  EXPECT_DOUBLE_EQ(m[2], 200.0);
  EXPECT_EQ(MeanPerSlot({7.0}, 3).size(), 1u);
  EXPECT_TRUE(MeanPerSlot({}, 3).empty());
}

TEST(SpanSelfTime, SubtractsUnionOfChildren) {
  std::vector<Span> spans(4);
  spans[0] = {1, 0, 1, "request", 0.0, 10.0};
  spans[1] = {2, 1, 1, "core.join", 1.0, 6.0};
  spans[2] = {3, 1, 1, "core.join", 4.0, 8.0};   // Overlaps span 2.
  spans[3] = {4, 2, 1, "core.first_next", 2.0, 3.0};
  const std::vector<double> self = SelfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 7.0);  // Children cover [1, 8].
  EXPECT_DOUBLE_EQ(self[1], 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 4.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  const auto by_name = SelfTimeByName(spans);
  EXPECT_DOUBLE_EQ(by_name.at("core.join"), 8.0);
}

TEST(SpanSelfTime, ClipsChildrenToParent) {
  std::vector<Span> spans(2);
  spans[0] = {1, 0, 1, "request", 0.0, 5.0};
  spans[1] = {2, 1, 1, "service.submit_to_ready", 3.0, 9.0};
  EXPECT_DOUBLE_EQ(SelfTimesMs(spans)[0], 3.0);
}

TEST(SpanRecorder, NestsAndSerializes) {
  SpanRecorder recorder;
  const uint64_t root = recorder.Begin("request", 7);
  const uint64_t child = recorder.Begin("core.join", 7, root);
  recorder.End(child);
  recorder.End(root);
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, root);
  EXPECT_LE(recorder.spans()[1].end_ms, recorder.spans()[0].end_ms);
  EXPECT_NE(recorder.ToJson().find("\"self_ms\""), std::string::npos);
}

TEST(FailureTally, CountsEveryAttempt) {
  FailureTally tally;
  EXPECT_EQ(tally.failed_frac(), 0.0);
  tally.Record(true);
  tally.Record(false);
  tally.Record(true);
  tally.Record(false);
  EXPECT_EQ(tally.attempted(), 4u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_EQ(tally.failed_frac(), 0.5);

  FailureTally other;
  other.Record(true);
  tally.Add(other);
  EXPECT_EQ(tally.attempted(), 5u);
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.4);
}

TEST(MetricNames, CharacterSet) {
  EXPECT_TRUE(IsValidMetricName("latency_p50_ms"));
  EXPECT_TRUE(IsValidMetricName("storage.buffer_hit_rate"));
  EXPECT_TRUE(IsValidMetricName("kdj-spill"));
  EXPECT_TRUE(IsValidMetricName("9lives"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName(".hidden"));
  EXPECT_FALSE(IsValidMetricName("_x"));
  EXPECT_FALSE(IsValidMetricName("latency ms"));
  EXPECT_FALSE(IsValidMetricName("a/b"));
  EXPECT_FALSE(IsValidMetricName("quote\""));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'a')));

  EXPECT_TRUE(IsValidUnit("ms"));
  EXPECT_TRUE(IsValidUnit("1/s"));
  EXPECT_TRUE(IsValidUnit("count/req"));
  EXPECT_TRUE(IsValidUnit("%"));
  EXPECT_FALSE(IsValidUnit(""));
  EXPECT_FALSE(IsValidUnit("m s"));
  EXPECT_FALSE(IsValidUnit(std::string(17, 'a')));
}

TEST(JsonNumber, RoundTripsAndRejectsNonFinite) {
  EXPECT_EQ(JsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(JsonNumber(2.0), "2");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

}  // namespace
}  // namespace amdj::perfbench
