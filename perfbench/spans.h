#ifndef AMDJ_PERFBENCH_SPANS_H_
#define AMDJ_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// In-memory span recorder for the traced run. Spans are opened and closed
/// by the benchmark around its own calls into the library (one recording
/// thread), kept in memory and written out when the run ends.

namespace amdj::perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root.
  uint64_t request = 0;  ///< Request id shared by a request's spans; 0 = setup.
  std::string name;
  double start_ms = 0.0;  ///< Since the recorder's epoch.
  double end_ms = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its id (ids start at 1).
  uint64_t Begin(std::string name, uint64_t request, uint64_t parent = 0);
  /// Closes span `id` now.
  void End(uint64_t id);
  /// Records an already-measured interval.
  uint64_t Add(std::string name, uint64_t request, uint64_t parent,
               std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// {"spans":[...]} with each span's self time.
  std::string ToJson() const;

 private:
  double SinceEpochMs(std::chrono::steady_clock::time_point t) const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time of every span, index-aligned with `spans`: its duration minus
/// the part of its interval covered by the union of its direct children
/// (each child clipped to the parent's interval).
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// Summed self time per span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

}  // namespace amdj::perfbench

#endif  // AMDJ_PERFBENCH_SPANS_H_
