#include "bench_math.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>

namespace amdj::perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> MeanPerSlot(const std::vector<double>& values,
                                size_t slots) {
  std::vector<double> sum(std::min(slots, values.size()), 0.0);
  std::vector<size_t> count(sum.size(), 0);
  for (size_t i = 0; i < values.size(); ++i) {
    sum[i % slots] += values[i];
    ++count[i % slots];
  }
  for (size_t s = 0; s < sum.size(); ++s) sum[s] /= count[s];
  return sum;
}

size_t SamplesBeyond(size_t n, uint32_t per_mille) {
  // rank = ceil(n * per_mille / 1000), at least 1; integer arithmetic so
  // n = 100, p90 gives exactly rank 90 and 10 samples beyond.
  size_t rank = (n * per_mille + 999) / 1000;
  if (rank == 0) rank = 1;
  return n >= rank ? n - rank : 0;
}

double NearestRankPercentile(std::vector<double> values, uint32_t per_mille) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const size_t rank = values.size() - SamplesBeyond(values.size(), per_mille);
  return values[rank - 1];
}

TailChoice SelectTail(const std::vector<double>& values, size_t min_beyond) {
  static constexpr uint32_t kCandidates[] = {999, 990, 900, 750, 500};
  TailChoice choice;
  choice.samples = values.size();
  choice.per_mille = 500;
  for (uint32_t per_mille : kCandidates) {
    if (SamplesBeyond(values.size(), per_mille) >= min_beyond) {
      choice.per_mille = per_mille;
      break;
    }
  }
  choice.beyond = SamplesBeyond(values.size(), choice.per_mille);
  choice.value = NearestRankPercentile(values, choice.per_mille);
  return choice;
}

namespace {

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '.' || c == '-';
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), IsNameChar);
}

bool IsValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsNameChar(c) || c == '/' || c == '%';
  });
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace amdj::perfbench
