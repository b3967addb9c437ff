#include "spans.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "bench_math.h"

namespace amdj::perfbench {

double SpanRecorder::SinceEpochMs(
    std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::milli>(t - epoch_).count();
}

uint64_t SpanRecorder::Begin(std::string name, uint64_t request,
                             uint64_t parent) {
  const auto now = std::chrono::steady_clock::now();
  return Add(std::move(name), request, parent, now, now);
}

void SpanRecorder::End(uint64_t id) {
  spans_[id - 1].end_ms = SinceEpochMs(std::chrono::steady_clock::now());
}

uint64_t SpanRecorder::Add(std::string name, uint64_t request,
                           uint64_t parent,
                           std::chrono::steady_clock::time_point start,
                           std::chrono::steady_clock::time_point end) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = std::move(name);
  span.start_ms = SinceEpochMs(start);
  span.end_ms = SinceEpochMs(end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::string SpanRecorder::ToJson() const {
  const std::vector<double> self = SelfTimesMs(spans_);
  std::string out = "{\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"request\":" + std::to_string(s.request) + ",\"name\":\"" +
           s.name + "\",\"start_ms\":" + JsonNumber(s.start_ms) +
           ",\"end_ms\":" + JsonNumber(s.end_ms) +
           ",\"self_ms\":" + JsonNumber(self[i]) + "}";
  }
  out += "]}";
  return out;
}

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto parent = index.find(s.parent);
    if (s.parent == 0 || parent == index.end()) continue;
    const Span& p = spans[parent->second];
    const double lo = std::max(s.start_ms, p.start_ms);
    const double hi = std::min(s.end_ms, p.end_ms);
    if (hi > lo) children[parent->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (spans[i].end_ms - spans[i].start_ms) - covered;
  }
  return self;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

}  // namespace amdj::perfbench
