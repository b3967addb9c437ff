#ifndef AMDJ_PERFBENCH_BENCH_MATH_H_
#define AMDJ_PERFBENCH_BENCH_MATH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// The benchmark's own arithmetic: percentiles, the tail-percentile rule,
/// failure accounting and the metric-name rule. Kept free of library types
/// so perfbench_selftest can check it in isolation.

namespace amdj::perfbench {

/// Median with linear interpolation between the two middle values. NaN for
/// an empty input.
double Median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least
/// ceil(n * per_mille / 1000) samples at or below it. `per_mille` is the
/// percentile times ten (900 = p90, 999 = p99.9). NaN for an empty input.
double NearestRankPercentile(std::vector<double> values, uint32_t per_mille);

/// Mean of the samples at positions i with i % slots == s, for each slot s
/// that has samples: the per-request mean when a batch of `slots` requests
/// is cycled in order.
std::vector<double> MeanPerSlot(const std::vector<double>& values,
                                size_t slots);

/// Samples strictly beyond the nearest-rank percentile: n - rank.
size_t SamplesBeyond(size_t n, uint32_t per_mille);

/// The tail percentile a run reports: the highest of p99.9, p99, p90 (then
/// p75, p50 for short runs) that leaves at least `min_beyond` samples
/// beyond it. Runs too short for even p50 report p50.
struct TailChoice {
  uint32_t per_mille = 500;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
TailChoice SelectTail(const std::vector<double>& values,
                      size_t min_beyond = 10);

/// Request accounting: a request fails on an error status, an admission
/// rejection, or an output that fails the check. Each request is recorded
/// exactly once.
class FailureTally {
 public:
  void Record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void Add(const FailureTally& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// failed / attempted; 0 when nothing was attempted.
  double failed_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A metric name starts with a letter or digit and has at most 64 letters,
/// digits, '_', '.' and '-'.
bool IsValidMetricName(std::string_view name);

/// A unit has 1..16 letters, digits, '_', '/', '%', '.' and '-'.
bool IsValidUnit(std::string_view unit);

/// Shortest round-trip decimal for a JSON number (non-finite -> null).
std::string JsonNumber(double value);

}  // namespace amdj::perfbench

#endif  // AMDJ_PERFBENCH_BENCH_MATH_H_
