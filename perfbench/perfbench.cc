// The repo benchmark: one command, four named workloads, checked outputs.
//
//   amdj_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out <dir>]
//
// --trace 0 measures the end-to-end metrics with nothing attached to the
// library. --trace 1 is the separate traced run: one fixed pass of the
// workload with spans, the timing disk decorators and RunReport attached,
// replayed untraced to prove the instrumentation changes no output or work
// counter, and reported as per-layer metrics. The last stdout line is one
// JSON object {"correct","attempted","failed","metrics"}; the full result
// (host, configuration, check outcomes) goes to <out>/ as JSON.

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "common/mutex.h"
#include "common/run_report.h"
#include "common/stats.h"
#include "core/cost_model.h"
#include "core/distance_join.h"
#include "geom/kernels.h"
#include "geom/metric.h"
#include "spans.h"
#include "workloads.h"

#ifndef AMDJ_PERFBENCH_BUILD_TYPE
#define AMDJ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace amdj::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr uint32_t kServiceOutstanding = 4;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_results";
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: amdj_perfbench --workload <%s> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               error, WorkloadNames().c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("--seed takes an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed) Usage("--workload and --seed are required");
  return args;
}

// ---------------------------------------------------------------------------
// Output check.

/// The ranked distance sequence every response must reproduce: AM-KDJ at
/// the workload's largest k, cross-checked once against B-KDJ. Any
/// request's distances must equal its prefix (the k smallest distances of
/// the product are a prefix of the K smallest for K >= k).
struct Reference {
  std::vector<double> distances;
  uint64_t product = 0;
};

Reference BuildReference(const Env& env) {
  core::JoinOptions options;  // In-memory queue: the reference is not timed.
  options.queue_memory_bytes = 256u << 20;
  const uint64_t k = env.spec.k_max;
  auto am = core::RunKDistanceJoin(*env.r, *env.s, k,
                                   core::KdjAlgorithm::kAmKdj, options,
                                   nullptr);
  auto b = core::RunKDistanceJoin(*env.r, *env.s, k, core::KdjAlgorithm::kBKdj,
                                  options, nullptr);
  if (!am.ok() || !b.ok()) {
    std::fprintf(stderr, "perfbench: reference join failed: %s\n",
                 (!am.ok() ? am.status() : b.status()).ToString().c_str());
    std::exit(1);
  }
  Reference ref;
  ref.product = env.r->size() * env.s->size();
  for (const core::ResultPair& p : *am) ref.distances.push_back(p.distance);
  bool agree = am->size() == b->size();
  for (size_t i = 0; agree && i < am->size(); ++i) {
    agree = (*am)[i].distance == (*b)[i].distance;
  }
  if (!agree || ref.distances.size() != std::min(k, ref.product)) {
    std::fprintf(stderr,
                 "perfbench: reference AM-KDJ and B-KDJ disagree at k=%" PRIu64
                 "\n",
                 k);
    std::exit(1);
  }
  return ref;
}

/// Empty when `results` is a correct answer to `request`, else the reason.
std::string CheckOutput(const Env& env, const Reference& ref,
                        const Request& request,
                        const std::vector<core::ResultPair>& results) {
  const uint64_t expected = std::min(request.k, ref.product);
  if (results.size() != expected) {
    return "expected " + std::to_string(expected) + " pairs, got " +
           std::to_string(results.size());
  }
  for (size_t i = 0; i < results.size(); ++i) {
    const core::ResultPair& p = results[i];
    if (i > 0 && p.distance < results[i - 1].distance) {
      return "distances decrease at rank " + std::to_string(i);
    }
    if (p.distance != ref.distances[i]) {
      return "distance at rank " + std::to_string(i) +
             " differs from the reference";
    }
    if (p.r_id >= env.r_data.objects.size() ||
        p.s_id >= env.s_data.objects.size()) {
      return "object id out of range at rank " + std::to_string(i);
    }
    const double d = geom::MinDistance(env.r_data.objects[p.r_id],
                                       env.s_data.objects[p.s_id],
                                       geom::Metric::kL2)
                         .raw();
    if (d != p.distance) {
      return "pair at rank " + std::to_string(i) +
             " does not have its reported distance";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Running requests.

/// One request's measured outcome.
struct Outcome {
  uint64_t id = 0;
  Request request;
  bool ok = true;
  std::string error;
  double latency_ms = 0.0;
  double first_pair_ms = 0.0;
  double sim_io_ms = 0.0;
  double wait_ms = kNaN;  ///< Service workloads only.
  double exec_ms = kNaN;
  JoinStats stats;
  /// From RunReport (traced direct and service-mixed requests).
  double edmax_ratio = kNaN;
  size_t phases = 0;
  std::map<std::string, double> phase_ms;
  /// Checked as soon as the request ends; kept only with keep_outcomes.
  std::vector<core::ResultPair> results;
};

struct PassOptions {
  uint64_t min_requests = 0;
  uint64_t max_requests = UINT64_MAX;
  double seconds = 0.0;  ///< Measured time after which no request starts.
  uint32_t outstanding = 1;
  bool traced = false;
  /// Keep every Outcome with its results (trace mode compares passes).
  /// Otherwise only the per-request timings below are kept.
  bool keep_outcomes = false;
};

struct PassResult {
  std::vector<Outcome> outcomes;  ///< keep_outcomes only; in id order.
  std::vector<double> latency_ms;
  /// Direct workloads only: on the service workloads every pair arrives
  /// with the reply and no page I/O is simulated.
  std::vector<double> first_pair_ms;
  std::vector<double> sim_io_ms;
  JoinStats total;
  FailureTally tally;
  std::vector<std::string> failures;  ///< The first few, for the report.
  /// Time inside the measured regions: the sum of request latencies for
  /// direct workloads. For service workloads, wall time minus service
  /// restarts and minus output checks that ran while no request was
  /// outstanding.
  double measured_s = 0.0;
  double repeat_share = 0.0;
  /// Summed over every service the pass used (service-repeat restarts it).
  uint32_t peak_inflight = 0;
  uint64_t inflight_hits = 0;
  uint64_t cache_hits = 0;
  uint64_t seed_hits = 0;

  void AddServiceCounters(const service::JoinService& svc) {
    peak_inflight = std::max(peak_inflight, svc.peak_inflight());
    inflight_hits += svc.shared_inflight_hits();
    cache_hits += svc.shared_cache_hits();
    seed_hits += svc.shared_seed_hits();
  }
};

/// Notes the moment each service reply becomes ready. One thread per
/// submission slot blocks on that slot's future, so a reply that lands
/// while the submitting thread is busy (submitting, or checking another
/// reply) still gets its own ready time.
class ReplyWatcher {
 public:
  explicit ReplyWatcher(size_t slots) : watched_(slots) {
    for (size_t i = 0; i < slots; ++i) {
      threads_.emplace_back([this, i] { Watch(i); });
    }
  }

  ~ReplyWatcher() {
    {
      const MutexLock lock(&mu_);
      stop_ = true;
    }
    watch_cv_.NotifyAll();
    for (std::thread& t : threads_) t.join();
  }

  ReplyWatcher(const ReplyWatcher&) = delete;
  ReplyWatcher& operator=(const ReplyWatcher&) = delete;

  /// Starts watching `future` for `slot`. The future must stay in place,
  /// and unread, until Take or TryTake reports the slot.
  void Add(size_t slot, const std::future<service::JoinResponse>* future) {
    {
      const MutexLock lock(&mu_);
      watched_[slot] = future;
    }
    watch_cv_.NotifyAll();
  }

  /// A reply that became ready, without blocking; false when none has.
  bool TryTake(size_t* slot, Clock::time_point* ready_at) {
    const MutexLock lock(&mu_);
    return PopLocked(slot, ready_at);
  }

  /// Blocks until a watched reply is ready.
  void Take(size_t* slot, Clock::time_point* ready_at) {
    const MutexLock lock(&mu_);
    while (ready_.empty()) ready_cv_.Wait(&mu_);
    PopLocked(slot, ready_at);
  }

 private:
  void Watch(size_t slot) {
    while (true) {
      const std::future<service::JoinResponse>* future = nullptr;
      {
        const MutexLock lock(&mu_);
        while (!stop_ && watched_[slot] == nullptr) watch_cv_.Wait(&mu_);
        if (stop_) return;
        future = watched_[slot];
      }
      future->wait();
      const Clock::time_point ready_at = Clock::now();
      {
        const MutexLock lock(&mu_);
        watched_[slot] = nullptr;
        ready_.emplace_back(slot, ready_at);
      }
      ready_cv_.NotifyOne();
    }
  }

  bool PopLocked(size_t* slot, Clock::time_point* ready_at)
      AMDJ_REQUIRES(mu_) {
    if (ready_.empty()) return false;
    *slot = ready_.front().first;
    *ready_at = ready_.front().second;
    ready_.pop_front();
    return true;
  }

  Mutex mu_;
  CondVar watch_cv_;
  CondVar ready_cv_;
  bool stop_ AMDJ_GUARDED_BY(mu_) = false;
  std::vector<const std::future<service::JoinResponse>*> watched_
      AMDJ_GUARDED_BY(mu_);
  std::deque<std::pair<size_t, Clock::time_point>> ready_ AMDJ_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;
};

/// Fills the RunReport-derived fields of `out`.
void ReadReport(const RunReport& report, Outcome* out) {
  out->phases = report.phases().size();
  for (const RunReport::Phase& phase : report.phases()) {
    out->phase_ms[phase.name] += phase.wall_seconds * 1e3;
  }
  double initial = kNaN;
  for (const RunReport::CutoffPoint& point : report.cutoff_trajectory()) {
    if (point.label == "initial_edmax") initial = point.distance;
  }
  // Final Dmax: the distance of the k-th (last) pair the caller received.
  if (!std::isnan(initial) && !out->results.empty() &&
      out->results.back().distance > 0) {
    out->edmax_ratio = initial / out->results.back().distance;
  }
}

double SimIoMs(const storage::DiskStats& tree_before,
               const storage::DiskStats& tree_after,
               const storage::DiskStats& spill_before,
               const storage::DiskStats& spill_after) {
  const core::CostModel model;
  return 1e3 * (model.Seconds(core::CostModel::Delta(tree_before, tree_after)) +
                model.Seconds(core::CostModel::Delta(spill_before, spill_after)));
}

/// One direct request, cold (buffer cleared first, as in the paper).
Outcome RunDirect(Env& env, const Request& request, uint64_t id, bool traced,
                  SpanRecorder* spans) {
  Outcome out;
  out.id = id;
  out.request = request;
  const Status cleared = env.pool->Clear();
  if (!cleared.ok()) {
    out.ok = false;
    out.error = cleared.ToString();
    return out;
  }
  const storage::DiskStats tree_before = env.tree_disk->stats();
  const storage::DiskStats spill_before = env.spill_disk->stats();
  RunReport report;
  core::JoinOptions options = env.DirectOptions();
  if (traced) options.report = &report;
  const uint64_t request_span = traced ? spans->Begin("request", id) : 0;
  const uint64_t join_span =
      traced ? spans->Begin("core.join", id, request_span) : 0;

  Status status;
  const Clock::time_point start = Clock::now();
  Clock::time_point end;
  if (!request.idj) {
    auto result = core::RunKDistanceJoin(*env.r, *env.s, request.k,
                                         request.kdj, options, &out.stats);
    end = Clock::now();
    out.first_pair_ms = Ms(start, end);
    if (result.ok()) {
      out.results = std::move(*result);
    } else {
      status = result.status();
    }
  } else {
    auto cursor = core::OpenIncrementalJoin(*env.r, *env.s,
                                            request.idj_algorithm, options,
                                            &out.stats);
    if (!cursor.ok()) {
      status = cursor.status();
    } else {
      out.results.reserve(request.k);
      for (uint64_t i = 0; i < request.k && status.ok(); ++i) {
        const uint64_t next_span =
            traced && i == 0 ? spans->Begin("core.first_next", id, join_span)
                             : 0;
        core::ResultPair pair;
        bool done = false;
        status = (*cursor)->Next(&pair, &done);
        if (i == 0) {
          out.first_pair_ms = Ms(start, Clock::now());
          if (traced) spans->End(next_span);
        }
        if (done) break;
        if (status.ok()) out.results.push_back(pair);
      }
    }
    end = Clock::now();
    if (cursor.ok()) cursor->reset();  // Finalizes the RunReport.
  }
  if (traced) {
    spans->End(join_span);
    spans->End(request_span);
  }
  out.latency_ms = Ms(start, end);
  out.sim_io_ms = SimIoMs(tree_before, env.tree_disk->stats(), spill_before,
                          env.spill_disk->stats());
  if (!status.ok()) {
    out.ok = false;
    out.error = status.ToString();
  }
  if (traced) ReadReport(report, &out);
  return out;
}

/// Runs requests from `stream` until the pass limits are met, checking
/// each output as it arrives (outside every measured region).
PassResult RunPass(Env& env, const Reference& ref, RequestStream& stream,
                   const PassOptions& po, SpanRecorder* spans) {
  PassResult pass;
  const bool service = env.spec.is_service();
  // Address space only: untouched capacity is not resident, and no
  // reallocation copy lands in peak_rss_mb.
  pass.latency_ms.reserve(service ? size_t{1} << 24 : size_t{1} << 12);
  // Outputs already verified, by request: a repeated request whose output
  // is identical needs no second geometric check. Emptied when full and at
  // each fresh service (replies are checked in the order they were taken,
  // so the previous service's are done by then); not kept on
  // service-mixed, whose requests are all distinct.
  static constexpr size_t kVerifiedCap = 64;
  const bool remember = env.spec.kind != WorkloadKind::kServiceMixed;
  std::map<Request, std::vector<core::ResultPair>> verified;
  const auto finish = [&](Outcome out) {
    if (out.request.fresh_service) verified.clear();
    if (out.ok) {
      const auto it = verified.find(out.request);
      if (it == verified.end() || !(it->second == out.results)) {
        out.error = CheckOutput(env, ref, out.request, out.results);
        if (out.error.empty() && remember) {
          if (verified.size() == kVerifiedCap) verified.clear();
          verified.emplace(out.request, out.results);
        }
      }
    }
    if (!out.error.empty()) out.ok = false;
    pass.tally.Record(out.ok);
    if (!out.ok && pass.failures.size() < 5) {
      pass.failures.push_back("request " + std::to_string(out.id) + " (" +
                              out.request.Label() + ") failed: " + out.error);
    }
    pass.latency_ms.push_back(out.latency_ms);
    if (!service) {
      pass.first_pair_ms.push_back(out.first_pair_ms);
      pass.sim_io_ms.push_back(out.sim_io_ms);
    }
    pass.total.Add(out.stats);
    if (po.keep_outcomes) pass.outcomes.push_back(std::move(out));
  };
  const auto more = [&](uint64_t started, double measured_s) {
    if (started >= po.max_requests) return false;
    return started < po.min_requests || measured_s < po.seconds;
  };

  if (!service) {
    uint64_t started = 0;
    while (more(started, pass.measured_s)) {
      Outcome out =
          RunDirect(env, stream.Next(), ++started, po.traced, spans);
      pass.measured_s += out.latency_ms / 1e3;
      finish(std::move(out));
    }
    pass.repeat_share = stream.repeat_share();
    return pass;
  }

  // Closed loop from one submitting thread: at most `outstanding` requests
  // in flight, and a caller sends its next request only after its reply
  // has been taken. Replies are checked after the freed slots are refilled,
  // so checking overlaps the requests still running. A reply answered
  // inside Submit (a cache hit) is ready when Submit returns; any other is
  // timed by the watcher.
  const bool attach_report =
      po.traced && env.spec.kind == WorkloadKind::kServiceMixed;
  struct InFlight {
    bool busy = false;
    uint64_t id = 0;
    Request request;
    Clock::time_point submitted;
    uint64_t request_span = 0;
    std::unique_ptr<RunReport> report;
    std::future<service::JoinResponse> future;
  };
  std::vector<InFlight> slots(po.outstanding);
  size_t busy = 0;
  std::deque<Outcome> taken;  // Replies not yet checked.
  std::optional<Request> held;  // Drawn, waiting for a barrier.
  ReplyWatcher watcher(po.outstanding);
  uint64_t started = 0;
  double excluded_s = 0.0;
  const Clock::time_point pass_start = Clock::now();
  const auto since = [](Clock::time_point t) {
    return std::chrono::duration<double>(Clock::now() - t).count();
  };
  const auto measured = [&] { return since(pass_start) - excluded_s; };

  const auto take = [&](size_t slot, Clock::time_point ready_at) {
    InFlight& f = slots[slot];
    service::JoinResponse response = f.future.get();
    Outcome out;
    out.id = f.id;
    out.request = f.request;
    out.latency_ms = Ms(f.submitted, ready_at);
    out.first_pair_ms = out.latency_ms;
    out.wait_ms = response.wait_seconds * 1e3;
    out.exec_ms = response.exec_seconds * 1e3;
    out.stats = response.stats;
    out.results = std::move(response.results);
    if (!response.status.ok()) {
      out.ok = false;
      out.error = response.status.ToString();
    }
    if (po.traced) {
      spans->Add("service.submit_to_ready", f.id, f.request_span, f.submitted,
                 ready_at);
      spans->End(f.request_span);
    }
    if (f.report != nullptr) ReadReport(*f.report, &out);
    f.report.reset();
    f.busy = false;
    --busy;
    taken.push_back(std::move(out));
  };

  while (true) {
    while (busy < po.outstanding && taken.size() < po.outstanding &&
           more(started, measured())) {
      if (!held) held = stream.Next();
      if ((held->barrier || held->fresh_service) && busy > 0) break;
      if (held->fresh_service) {
        const Clock::time_point restart = Clock::now();
        pass.AddServiceCounters(*env.service);
        env.RestartService();
        excluded_s += since(restart);
      }
      size_t slot = 0;
      while (slots[slot].busy) ++slot;
      InFlight& f = slots[slot];
      f.busy = true;
      ++busy;
      f.id = ++started;
      f.request = *held;
      held.reset();
      service::JoinRequest req = env.ServiceRequest(f.request);
      if (attach_report) {
        f.report = std::make_unique<RunReport>();
        req.options.report = f.report.get();
      }
      if (po.traced) f.request_span = spans->Begin("request", f.id);
      f.submitted = Clock::now();
      f.future = env.service->Submit(std::move(req));
      const Clock::time_point returned = Clock::now();
      if (f.future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        take(slot, returned);
      } else {
        watcher.Add(slot, &f.future);
      }
    }
    size_t slot = 0;
    Clock::time_point ready_at;
    bool took = false;
    while (watcher.TryTake(&slot, &ready_at)) {
      take(slot, ready_at);
      took = true;
    }
    if (took) continue;  // Refill the freed slots before checking.
    if (!taken.empty()) {
      const bool idle = busy == 0;
      const Clock::time_point check = Clock::now();
      finish(std::move(taken.front()));
      taken.pop_front();
      if (idle) excluded_s += since(check);
      continue;
    }
    if (busy == 0) break;
    watcher.Take(&slot, &ready_at);
    take(slot, ready_at);
  }
  pass.measured_s = measured();
  std::sort(pass.outcomes.begin(), pass.outcomes.end(),
            [](const Outcome& a, const Outcome& b) { return a.id < b.id; });
  pass.repeat_share = stream.repeat_share();
  pass.AddServiceCounters(*env.service);
  return pass;
}

// ---------------------------------------------------------------------------
// Metrics and reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::map<std::string, std::string> not_applicable;
  std::vector<std::string> checks_failed;
  std::vector<std::string> notes;
  FailureTally tally;
  TailChoice tail;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void AddNa(const std::string& name, const std::string& unit,
             const std::string& reason) {
    Add(name, 0.0, unit);
    not_applicable[name] = reason;
  }
  void Check(bool condition, const std::string& what) {
    if (!condition) checks_failed.push_back(what);
  }
  bool correct() const {
    return tally.failed() == 0 && checks_failed.empty();
  }
};

template <typename Fn>
std::vector<double> Collect(const std::vector<Outcome>& outcomes, Fn fn) {
  std::vector<double> values;
  for (const Outcome& o : outcomes) {
    const double v = fn(o);
    if (!std::isnan(v)) values.push_back(v);
  }
  return values;
}

template <typename Fn>
double MeanPerRequest(const std::vector<Outcome>& outcomes, Fn fn) {
  double sum = 0.0;
  for (const Outcome& o : outcomes) sum += static_cast<double>(fn(o));
  return outcomes.empty() ? 0.0 : sum / static_cast<double>(outcomes.size());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Layer-targeting checks: a workload that stops stressing (or bypassing)
/// its layer fails the run instead of silently measuring something else.
void LayerSelfChecks(const WorkloadSpec& spec, const PassResult& pass,
                     Report* report) {
  const JoinStats& total = pass.total;
  switch (spec.kind) {
    case WorkloadKind::kKdjSpill:
      report->Check(total.queue_swapins > 0,
                    "kdj-spill must swap queue segments in (queue.swapins > 0)");
      break;
    case WorkloadKind::kIdjSkewed:
      break;  // Its eDmax check needs the RunReport: traced run only.
    case WorkloadKind::kServiceMixed: {
      report->Check(total.queue_page_writes == 0,
                    "service-mixed must not spill (queue.spill_pages_written "
                    "== 0)");
      const double hit_rate =
          total.node_accesses == 0
              ? 0.0
              : static_cast<double>(total.node_buffer_hits) /
                    static_cast<double>(total.node_accesses);
      report->Check(hit_rate >= 0.99,
                    "service-mixed must run from a warm buffer "
                    "(storage.buffer_hit_rate >= 0.99)");
      break;
    }
    case WorkloadKind::kServiceRepeat:
      report->Check(pass.repeat_share > 0,
                    "service-repeat must repeat requests (repeat share > 0)");
      report->Check(pass.inflight_hits + pass.cache_hits > 0,
                    "service-repeat must be served by shared work "
                    "(service.shared_hit_rate > 0)");
      break;
  }
}

void TallyPass(const PassResult& pass, Report* report) {
  report->tally.Add(pass.tally);
  report->notes.insert(report->notes.end(), pass.failures.begin(),
                       pass.failures.end());
}

/// --trace 0: the end-to-end metrics.
void EndToEnd(const Args& args, const WorkloadSpec& spec, Report* report,
              std::string* config) {
  // Set-up runs 21 times; the median is reported and the last
  // environment is kept for the timed pass.
  static constexpr int kSetups = 21;
  std::vector<double> setups;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    env = MakeEnv(spec, /*timed=*/false, nullptr);
    setups.push_back(env->setup.total());
  }
  const Reference ref = BuildReference(*env);
  RequestStream stream(spec, args.seed);
  PassOptions po;
  // The tail's percentile follows from the sample count (SelectTail). A
  // request floor per workload reaches its percentile however slow the
  // host or short --seconds is, so a slower host cannot move the tail to a
  // lower percentile: p90 (100 requests) on the direct workloads, whose
  // requests take 0.1-0.3 s; p99 (1 000) on service-mixed, which runs
  // about 6 500 in 20 s; p99.9 (10 000) on service-repeat, which runs about
  // 12 000 in 20 s and whose p99 is about 12% below its p99.9.
  switch (spec.kind) {
    case WorkloadKind::kKdjSpill:
    case WorkloadKind::kIdjSkewed:
      po.min_requests = std::max<uint64_t>(spec.batch, 100);
      break;
    case WorkloadKind::kServiceMixed:
      po.min_requests = 1'000;
      break;
    case WorkloadKind::kServiceRepeat:
      po.min_requests = 10'000;
      break;
  }
  po.seconds = args.seconds;
  po.outstanding = spec.is_service() ? kServiceOutstanding : 1;
  const PassResult pass = RunPass(*env, ref, stream, po, nullptr);
  // Before the statistics below, whose sorted copies of the samples would
  // otherwise count in the peak.
  const double peak_rss_mb = PeakRssMb();
  TallyPass(pass, report);
  LayerSelfChecks(spec, pass, report);

  const std::vector<double>& latency = pass.latency_ms;
  const bool service = spec.is_service();
  const std::vector<double>& first_pair =
      service ? latency : pass.first_pair_ms;
  std::vector<double> response = latency;
  for (size_t i = 0; i < pass.sim_io_ms.size(); ++i) {
    response[i] += pass.sim_io_ms[i];
  }
  // The direct workloads cycle a fixed batch, so each of its requests ran
  // once per pass: its latency is the mean over its passes, and the p50 is
  // the median over the batch. Host speed on a shared VM drifts by up to
  // a third within seconds; the mean spreads a drift over every request
  // instead of letting the median snap between a fast and a slow cluster.
  const auto p50 = [&](const std::vector<double>& samples) {
    return Median(service ? samples : MeanPerSlot(samples, spec.batch));
  };
  report->tail = SelectTail(latency);
  report->Add("latency_p50_ms", p50(latency), "ms");
  report->Add("latency_tail_ms", report->tail.value, "ms");
  report->Add("throughput_qps",
              static_cast<double>(latency.size()) / pass.measured_s, "1/s");
  report->Add("first_pair_p50_ms", p50(first_pair), "ms");
  report->Add("sim_response_p50_ms", p50(response), "ms");
  report->Add("setup_s", Median(setups), "s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");

  // Printed and recorded, not in the JSON metrics (it is 0 on a passing
  // run; the JSON carries attempted/failed instead).
  char line[256];
  std::snprintf(line, sizeof(line),
                "failed_frac=%.6f sim_io_p50_ms=%.3f repeat_share=%.4f "
                "tail=p%.1f over %zu samples (%zu beyond)",
                report->tally.failed_frac(),
                service ? 0.0 : Median(pass.sim_io_ms),
                pass.repeat_share, report->tail.per_mille / 10.0,
                report->tail.samples, report->tail.beyond);
  report->notes.push_back(line);
  if (spec.kind == WorkloadKind::kServiceRepeat) {
    // How the timed requests were served: executed (miss), joined to a
    // running identical request (in-flight hit), or answered from the
    // result cache.
    const uint64_t requests = latency.size();
    const uint64_t hits = pass.inflight_hits + pass.cache_hits;
    std::snprintf(line, sizeof(line),
                  "shared work: %" PRIu64 " requests, %" PRIu64
                  " misses, %" PRIu64 " in-flight hits, %" PRIu64
                  " cache hits",
                  requests, requests - hits, pass.inflight_hits,
                  pass.cache_hits);
    report->notes.push_back(line);
    *config += ",\"shared_misses\":" + std::to_string(requests - hits) +
               ",\"shared_inflight_hits\":" +
               std::to_string(pass.inflight_hits) +
               ",\"shared_cache_hits\":" + std::to_string(pass.cache_hits);
  }
  *config += ",\"tree_pages\":" + std::to_string(env->tree_disk->PageCount()) +
             ",\"requests_measured\":" + std::to_string(latency.size()) +
             ",\"failed_frac\":" + JsonNumber(report->tally.failed_frac()) +
             ",\"repeat_share\":" + JsonNumber(pass.repeat_share) +
             ",\"tail_per_mille\":" + std::to_string(report->tail.per_mille) +
             ",\"tail_samples\":" + std::to_string(report->tail.samples) +
             ",\"tail_beyond\":" + std::to_string(report->tail.beyond);
}

/// True when the two passes did the same work: equal outputs and, where
/// the workload is deterministic, equal work counters per request.
bool SameWork(const PassResult& a, const PassResult& b, bool counters,
              std::string* why) {
  if (a.outcomes.size() != b.outcomes.size()) {
    *why = "request counts differ";
    return false;
  }
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const Outcome& x = a.outcomes[i];
    const Outcome& y = b.outcomes[i];
    if (!(x.results == y.results)) {
      *why = "outputs differ on request " + std::to_string(x.id);
      return false;
    }
    if (!counters) continue;
    const JoinStats& s = x.stats;
    const JoinStats& t = y.stats;
    if (s.node_accesses != t.node_accesses ||
        s.node_disk_reads != t.node_disk_reads ||
        s.real_distance_computations != t.real_distance_computations ||
        s.axis_distance_computations != t.axis_distance_computations ||
        s.main_queue_insertions != t.main_queue_insertions ||
        s.distance_queue_insertions != t.distance_queue_insertions ||
        s.compensation_queue_insertions != t.compensation_queue_insertions ||
        s.queue_page_reads != t.queue_page_reads ||
        s.queue_page_writes != t.queue_page_writes ||
        x.sim_io_ms != y.sim_io_ms) {
      *why = "work counters differ on request " + std::to_string(x.id);
      return false;
    }
  }
  return true;
}

/// --trace 1: the per-layer metrics.
void PerLayer(const Args& args, const WorkloadSpec& spec, Report* report,
              std::string* config, SpanRecorder* spans) {
  std::unique_ptr<Env> traced_env =
      MakeEnv(spec, /*timed=*/true, spans);
  std::unique_ptr<Env> plain_env =
      MakeEnv(spec, /*timed=*/false, nullptr);
  const Reference ref = BuildReference(*plain_env);
  const bool service = spec.is_service();

  PassOptions po;
  po.min_requests = spec.batch;
  po.max_requests = spec.batch;
  po.outstanding = service ? kServiceOutstanding : 1;
  po.keep_outcomes = true;

  const TimedDiskManager::Totals tree0 = traced_env->timed_tree->totals();
  const TimedDiskManager::Totals spill0 = traced_env->timed_spill->totals();
  if (service) traced_env->RestartService();
  RequestStream traced_stream(spec, args.seed);
  po.traced = true;
  const PassResult traced = RunPass(*traced_env, ref, traced_stream, po, spans);
  const TimedDiskManager::Totals tree1 = traced_env->timed_tree->totals();
  const TimedDiskManager::Totals spill1 = traced_env->timed_spill->totals();

  if (service) plain_env->RestartService();
  RequestStream plain_stream(spec, args.seed);
  po.traced = false;
  const PassResult plain = RunPass(*plain_env, ref, plain_stream, po, nullptr);
  TallyPass(traced, report);
  TallyPass(plain, report);
  LayerSelfChecks(spec, traced, report);

  // The instrumentation must change nothing: same outputs and, except
  // where shared-work outcomes depend on timing, the same work counters.
  const bool compare_counters = spec.kind != WorkloadKind::kServiceRepeat;
  std::string why;
  const bool same = SameWork(traced, plain, compare_counters, &why);
  report->Check(same, "traced run must reproduce the untraced run: " + why);
  if (!compare_counters) {
    report->notes.push_back(
        "service-repeat: traced and untraced outputs compared; work counters "
        "not compared (in-flight dedupe and cache hits depend on timing)");
  }

  const std::vector<Outcome>& o = traced.outcomes;
  const double n = static_cast<double>(o.size());
  const JoinStats& total = traced.total;
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  report->Add("workload.generate_s", traced_env->setup.generate, "s");
  report->Add("rtree.bulk_load_s", traced_env->setup.bulk_load, "s");

  report->Add("storage.node_accesses", MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.node_accesses;
              }),
              "count/req");
  report->Add("storage.buffer_hit_rate",
              ratio(static_cast<double>(total.node_buffer_hits),
                    static_cast<double>(total.node_accesses)),
              "ratio");
  report->Add("storage.tree_page_reads",
              static_cast<double>(tree1.reads - tree0.reads) / n, "count/req");
  report->Add("storage.tree_read_ms", (tree1.read_ms - tree0.read_ms) / n,
              "ms/req");
  if (service) {
    const std::string why_spill =
        "session spill disks live inside JoinService, out of the "
        "decorator's reach; queue.spill_pages_* count their pages";
    report->AddNa("storage.spill_write_ms", "ms/req", why_spill);
    report->AddNa("storage.spill_read_ms", "ms/req", why_spill);
    report->AddNa("storage.sim_io_p50_ms", "ms",
                  "every tree page is buffered and nothing spills, so no "
                  "simulated I/O");
  } else {
    report->Add("storage.spill_write_ms",
                (spill1.write_ms - spill0.write_ms) / n, "ms/req");
    report->Add("storage.spill_read_ms", (spill1.read_ms - spill0.read_ms) / n,
                "ms/req");
    report->Add("storage.sim_io_p50_ms",
                Median(Collect(o, [](const Outcome& x) { return x.sim_io_ms; })),
                "ms");
  }

  report->Add("queue.main_insertions", MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.main_queue_insertions;
              }),
              "count/req");
  uint64_t peak = 0;
  for (const Outcome& x : o) peak = std::max(peak, x.stats.main_queue_peak_size);
  report->Add("queue.peak_size", static_cast<double>(peak), "count");
  report->Add("queue.splits", MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.queue_splits;
              }),
              "count/req");
  report->Add("queue.swapins", MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.queue_swapins;
              }),
              "count/req");
  report->Add("queue.spill_pages_written",
              MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.queue_page_writes;
              }),
              "count/req");
  report->Add("queue.spill_pages_read", MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.queue_page_reads;
              }),
              "count/req");

  report->Add("geom.distance_computations",
              MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.real_distance_computations;
              }),
              "count/req");
  report->Add("geom.axis_distance_computations",
              MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.axis_distance_computations;
              }),
              "count/req");
  report->Add("core.node_expansions", MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.node_expansions;
              }),
              "count/req");
  report->Add("core.pairs_per_distance",
              ratio(static_cast<double>(total.pairs_produced),
                    static_cast<double>(total.real_distance_computations)),
              "ratio");
  report->Add("core.compensation_insertions",
              MeanPerRequest(o, [](const Outcome& x) {
                return x.stats.compensation_queue_insertions;
              }),
              "count/req");
  report->Add("core.compensation_share",
              ratio(static_cast<double>(total.compensation_queue_insertions),
                    static_cast<double>(total.main_queue_insertions)),
              "ratio");

  // RunReport-derived metrics.
  const bool reported = spec.kind != WorkloadKind::kServiceRepeat;
  const std::vector<double> edmax =
      Collect(o, [](const Outcome& x) { return x.edmax_ratio; });
  const auto phase_median = [&](const char* name) {
    return Median(Collect(o, [name](const Outcome& x) {
      const auto it = x.phase_ms.find(name);
      return it == x.phase_ms.end() ? kNaN : it->second;
    }));
  };
  const auto add_reported = [&](const std::string& name, double value,
                                const std::string& unit,
                                const std::string& absent) {
    if (!reported) {
      report->AddNa(name, unit,
                    "a RunReport would exclude service-repeat requests from "
                    "shared work");
    } else if (std::isnan(value)) {
      report->AddNa(name, unit, absent);
    } else {
      report->Add(name, value, unit);
    }
  };
  add_reported("core.edmax_ratio", Median(edmax), "ratio",
               "no adaptive (AM) request ended at a non-zero Dmax");
  add_reported("core.stage_count",
               MeanPerRequest(o, [](const Outcome& x) { return x.phases; }),
               "count/req", "");
  add_reported("core.stage1_ms", phase_median("stage-1"), "ms",
               "no AM-IDJ request in this workload");
  add_reported("core.aggressive_ms", phase_median("aggressive"), "ms",
               "no AM-KDJ request in this workload");
  add_reported("core.compensation_ms", phase_median("compensation"), "ms",
               "no request entered a compensation stage");
  if (spec.kind == WorkloadKind::kIdjSkewed) {
    report->Check(!edmax.empty(),
                  "idj-skewed must record its core.edmax_ratio");
  }

  if (service) {
    report->Add("service.wait_ms",
                Median(Collect(o, [](const Outcome& x) { return x.wait_ms; })),
                "ms");
    report->Add("service.exec_ms",
                Median(Collect(o, [](const Outcome& x) { return x.exec_ms; })),
                "ms");
    if (spec.kind == WorkloadKind::kServiceMixed) {
      // The same requests once more, one at a time (untraced).
      plain_env->RestartService();
      RequestStream solo_stream(spec, args.seed);
      PassOptions solo_po = po;
      solo_po.outstanding = 1;
      const PassResult solo =
          RunPass(*plain_env, ref, solo_stream, solo_po, nullptr);
      TallyPass(solo, report);
      report->Add(
          "service.exec_vs_solo",
          ratio(Median(Collect(plain.outcomes,
                               [](const Outcome& x) { return x.exec_ms; })),
                Median(Collect(solo.outcomes,
                               [](const Outcome& x) { return x.exec_ms; }))),
          "ratio");
    } else {
      report->AddNa("service.exec_vs_solo", "ratio",
                    "a solo replay would be served from the shared-work "
                    "cache, so its exec times are not comparable");
    }
    report->Add("service.peak_inflight", traced.peak_inflight, "count");
    report->Add("service.shared_hit_rate",
                ratio(static_cast<double>(traced.inflight_hits +
                                          traced.cache_hits),
                      n),
                "ratio");
    report->Add("service.inflight_hits", static_cast<double>(traced.inflight_hits),
                "count");
    report->Add("service.cache_hits", static_cast<double>(traced.cache_hits),
                "count");
    report->Add("service.seed_hits", static_cast<double>(traced.seed_hits),
                "count");
    report->Add("service.repeat_share", traced.repeat_share, "ratio");
  } else {
    const std::string why_direct = "direct workload: no JoinService";
    static constexpr std::pair<const char*, const char*> kServiceMetrics[] = {
        {"service.wait_ms", "ms"},          {"service.exec_ms", "ms"},
        {"service.exec_vs_solo", "ratio"},  {"service.peak_inflight", "count"},
        {"service.shared_hit_rate", "ratio"}, {"service.inflight_hits", "count"},
        {"service.cache_hits", "count"},    {"service.seed_hits", "count"},
        {"service.repeat_share", "ratio"}};
    for (const auto& [name, unit] : kServiceMetrics) {
      report->AddNa(name, unit, why_direct);
    }
  }

  const double overhead =
      Median(traced.latency_ms) - Median(plain.latency_ms);
  report->Add("trace.overhead_ms", overhead, "ms");

  *config += ",\"tree_pages\":" +
             std::to_string(traced_env->tree_disk->PageCount()) +
             ",\"requests_traced\":" + std::to_string(o.size());
}

std::string HostJson(const Args& args, const WorkloadSpec& spec) {
  struct utsname host;
  std::string node = "unknown";
  std::string machine = "unknown";
  if (uname(&host) == 0) {
    node = host.nodename;
    machine = host.machine;
  }
  std::string json =
      "{\"workload\":\"" + spec.name + "\",\"seed\":" +
      std::to_string(args.seed) + ",\"seconds\":" + JsonNumber(args.seconds) +
      ",\"trace\":" + (args.trace ? "1" : "0") +
      ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"host\":\"" + node + "\",\"machine\":\"" + machine +
      "\",\"build_type\":\"" AMDJ_PERFBENCH_BUILD_TYPE
      "\",\"compiler\":\"" __VERSION__ "\",\"kernel_backend\":\"" +
      geom::ToString(geom::ActiveKernelBackend()) +
      "\",\"data_seed\":" + std::to_string(DataSeed()) +
      ",\"r_size\":" + std::to_string(spec.r_size) +
      ",\"s_size\":" + std::to_string(spec.s_size) +
      ",\"batch\":" + std::to_string(spec.batch) +
      ",\"k_min\":" + std::to_string(spec.k_min) +
      ",\"k_max\":" + std::to_string(spec.k_max);
  return json;
}

std::string MetricsJson(const Report& report) {
  std::string json = "{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}";
}

/// `s` as a quoted JSON string (control characters become spaces).
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  out += '"';
  return out;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  Report report;
  SpanRecorder spans;
  std::string config = HostJson(args, spec);
  if (args.trace) {
    PerLayer(args, spec, &report, &config, &spans);
  } else {
    EndToEnd(args, spec, &report, &config);
  }
  for (const Metric& m : report.metrics) {
    report.Check(IsValidMetricName(m.name) && IsValidUnit(m.unit),
                 "malformed metric name or unit: " + m.name);
  }

  std::printf("workload %s seed %" PRIu64 " trace %d: %s\n", spec.name.c_str(),
              args.seed, args.trace ? 1 : 0, config.c_str());
  for (const Metric& m : report.metrics) {
    const auto na = report.not_applicable.find(m.name);
    if (na != report.not_applicable.end()) {
      std::printf("  %-34s n/a  (%s)\n", m.name.c_str(), na->second.c_str());
    } else {
      std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("  failed_frac %.6f (%" PRIu64 " of %" PRIu64 ")\n",
              report.tally.failed_frac(), report.tally.failed(),
              report.tally.attempted());
  for (const std::string& note : report.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  for (const std::string& failure : report.checks_failed) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }

  // The full result file: host, configuration, metrics, n/a reasons and
  // check outcomes.
  std::string na_json = "{";
  for (const auto& [name, reason] : report.not_applicable) {
    if (na_json.size() > 1) na_json += ",";
    na_json += JsonString(name);
    na_json += ':';
    na_json += JsonString(reason);
  }
  na_json += "}";
  std::string checks_json = "[";
  for (const std::string& failure : report.checks_failed) {
    if (checks_json.size() > 1) checks_json += ",";
    checks_json += JsonString(failure);
  }
  checks_json += "]";
  const std::string stem = args.out + "/" + spec.name + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  {
    std::ofstream file(stem + ".json");
    file << config << ",\"correct\":" << (report.correct() ? "true" : "false")
         << ",\"attempted\":" << report.tally.attempted()
         << ",\"failed\":" << report.tally.failed()
         << ",\"metrics\":" << MetricsJson(report)
         << ",\"not_applicable\":" << na_json
         << ",\"checks_failed\":" << checks_json << "}\n";
  }
  if (args.trace) {
    std::ofstream file(stem + "-spans.json");
    file << spans.ToJson() << "\n";
    for (const auto& [name, self_ms] : SelfTimeByName(spans.spans())) {
      std::printf("  span self time %-26s %.3f ms\n", name.c_str(), self_ms);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              report.correct() ? "true" : "false", report.tally.attempted(),
              report.tally.failed(), MetricsJson(report).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace amdj::perfbench

int main(int argc, char** argv) { return amdj::perfbench::Main(argc, argv); }
