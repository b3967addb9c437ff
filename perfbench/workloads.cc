#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <tuple>
#include <utility>

#include "common/random.h"
#include "spans.h"
#include "workload/generators.h"

namespace amdj::perfbench {

namespace {

// The paper's experimental sizes (Section 5.1, scaled 1/5): 512 KB R-tree
// buffer and 512 KB of main-queue memory for the direct workloads.
constexpr size_t kDirectBufferPages = 512 * 1024 / storage::kPageSize;
constexpr size_t kDirectQueueMemory = 512 * 1024;
// Service workloads: a pool that holds every tree page (1 566 pages at the
// default sizes) and per-query queue memory no request can fill.
constexpr size_t kServiceBufferPages = 8192;
constexpr size_t kServiceQueueMemory = 64u << 20;
constexpr uint32_t kServiceInflight = 4;
// service-repeat reaches three cache keys, one per KDJ algorithm (the
// result cache keys on algorithm and options, not on k).
constexpr size_t kServiceCacheEntries = 3;
constexpr double kZipfDataTheta = 0.85;
// The data is fixed, like the paper's one TIGER extract; --seed draws the
// request stream. Data drawn per seed moved the join cost of the same
// request mix by up to 7x between seeds (the synthetic towns overlap or
// not), which would hide any change smaller than that.
constexpr uint64_t kDataSeed = 20000'05'15;
// service-repeat rounds: the duplicate mix (4 distinct queries x 12 copies)
// and the k-ladder (one warm query, then 8 smaller k twice) of
// bench/multi_query_throughput.
constexpr uint32_t kDuplicateCopies = 12;
constexpr uint32_t kRepeatRoundSize = 4 * kDuplicateCopies + 1 + 2 * 8;

const WorkloadSpec kWorkloads[] = {
    {WorkloadKind::kKdjSpill, "kdj-spill", 120'000, 36'000, 48, 10'000,
     100'000},
    {WorkloadKind::kIdjSkewed, "idj-skewed", 120'000, 36'000, 24, 1'000,
     100'000},
    {WorkloadKind::kServiceMixed, "service-mixed", 120'000, 36'000, 200, 100,
     10'000},
    {WorkloadKind::kServiceRepeat, "service-repeat", 120'000, 36'000,
     4 * kRepeatRoundSize, 100, 10'000},
};

Request Kdj(core::KdjAlgorithm algorithm, uint64_t k) {
  Request r;
  r.kdj = algorithm;
  r.k = k;
  return r;
}

Request Idj(core::IdjAlgorithm algorithm, uint64_t k) {
  Request r;
  r.idj = true;
  r.idj_algorithm = algorithm;
  r.k = k;
  return r;
}

/// k log-uniform over [lo, hi]; `u` in [0, 1).
uint64_t LogUniformK(uint64_t lo, uint64_t hi, double u) {
  const double v = std::exp(std::log(static_cast<double>(lo)) +
                            u * std::log(static_cast<double>(hi) /
                                         static_cast<double>(lo)));
  return std::clamp<uint64_t>(static_cast<uint64_t>(std::llround(v)), lo, hi);
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) {
      *spec = w;
      return true;
    }
  }
  return false;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& w : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += w.name;
  }
  return names;
}

std::string Request::Label() const {
  return std::string(idj ? "IDJ " : "KDJ ") +
         (idj ? core::ToString(idj_algorithm) : core::ToString(kdj)) +
         " k=" + std::to_string(k);
}

bool Request::operator<(const Request& o) const {
  return std::make_tuple(idj, kdj, idj_algorithm, k) <
         std::make_tuple(o.idj, o.kdj, o.idj_algorithm, o.k);
}

struct RequestStream::State {
  WorkloadSpec spec;
  Random rng;
  /// kdj-spill / idj-skewed: the fixed batch, cycled. Service workloads:
  /// the current cycle or round, refilled when used up.
  std::vector<Request> batch;
  uint64_t issued = 0;
  uint64_t repeats = 0;
  std::set<Request> seen;

  /// One request per (kind, k-stratum): the log k range is cut into
  /// `strata` equal strata and each k falls in the central `width` share
  /// of its stratum, placed by the seed. Every seed thus gets nearly the
  /// same k mix, so medians compare across seeds; the seed moves the exact
  /// k values and the order (a seeded shuffle, so a partial cycle is an
  /// unbiased subset). With `distinct`, a k already used by this stream is
  /// redrawn (a bounded number of times: a narrow stratum of integer k
  /// values can run out).
  std::vector<Request> StratifiedCycle(const std::vector<Request>& kinds,
                                       uint32_t strata, double width,
                                       bool distinct) {
    static constexpr int kRedraws = 64;
    std::vector<Request> cycle;
    for (const Request& kind : kinds) {
      for (uint32_t j = 0; j < strata; ++j) {
        Request request = kind;
        for (int attempt = 0; attempt <= kRedraws; ++attempt) {
          const double u =
              (j + 0.5 * (1 - width) + width * rng.NextDouble()) / strata;
          request.k = LogUniformK(spec.k_min, spec.k_max, u);
          if (!distinct || seen.count(request) == 0) break;
        }
        cycle.push_back(request);
      }
    }
    rng.Shuffle(cycle);
    return cycle;
  }

  /// One service-repeat round: the two shared-work mixes of
  /// bench/multi_query_throughput, each on a fresh service, at a scale s
  /// drawn log-uniform from [700, 1000] per round (that bench's k
  /// multiples at s = 1000 span [250, 10^4]).
  ///  - Duplicate: AM-KDJ 10s, B-KDJ 6s, AM-KDJ 3s, HS-KDJ 2s, 12 copies
  ///    each, interleaved round-robin as in that bench, so the four run
  ///    together. A copy submitted while its query runs joins it (in-flight
  ///    hit); one submitted later, or a smaller-k AM request after a larger
  ///    one has finished, is answered from the result cache.
  ///  - Ladder: AM-KDJ at 10s run alone, then 8s, 6s, 4s, 3s, 2s, s, s/2,
  ///    s/4, twice: every rung is a cached prefix of the warm run.
  std::vector<Request> RepeatRound() {
    using A = core::KdjAlgorithm;
    const double scale = 1000.0 * std::exp(std::log(0.7) * rng.NextDouble());
    const auto k = [scale](double multiple) {
      return static_cast<uint64_t>(std::llround(multiple * scale));
    };
    std::vector<Request> round;
    for (uint32_t copy = 0; copy < kDuplicateCopies; ++copy) {
      round.push_back(Kdj(A::kAmKdj, k(10)));
      round.push_back(Kdj(A::kBKdj, k(6)));
      round.push_back(Kdj(A::kAmKdj, k(3)));
      round.push_back(Kdj(A::kHsKdj, k(2)));
    }
    round.front().fresh_service = true;
    Request warm = Kdj(A::kAmKdj, k(10));
    warm.fresh_service = true;
    round.push_back(warm);
    for (int pass = 0; pass < 2; ++pass) {
      for (const double multiple : {8.0, 6.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25}) {
        round.push_back(Kdj(A::kAmKdj, k(multiple)));
      }
    }
    round[4 * kDuplicateCopies + 1].barrier = true;
    return round;
  }
};

RequestStream::RequestStream(const WorkloadSpec& spec, uint64_t seed)
    : state_(std::make_unique<State>()) {
  State& st = *state_;
  st.spec = spec;
  st.rng = Random(seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull);
  using A = core::KdjAlgorithm;
  switch (spec.kind) {
    case WorkloadKind::kKdjSpill:
      st.batch = st.StratifiedCycle(
          {Kdj(A::kHsKdj, 0), Kdj(A::kBKdj, 0), Kdj(A::kAmKdj, 0)},
          spec.batch / 3, /*width=*/0.5, /*distinct=*/false);
      break;
    case WorkloadKind::kIdjSkewed:
      st.batch = st.StratifiedCycle({Idj(core::IdjAlgorithm::kAmIdj, 0)},
                                    spec.batch, /*width=*/0.5,
                                    /*distinct=*/false);
      break;
    case WorkloadKind::kServiceMixed:
    case WorkloadKind::kServiceRepeat:
      break;  // Cycles and rounds are drawn as the stream advances.
  }
}

RequestStream::~RequestStream() = default;

Request RequestStream::Next() {
  State& st = *state_;
  Request request;
  switch (st.spec.kind) {
    case WorkloadKind::kKdjSpill:
    case WorkloadKind::kIdjSkewed:
      request = st.batch[st.issued % st.batch.size()];
      break;
    case WorkloadKind::kServiceMixed: {
      // Cycles of 64 requests: KDJ (AM, B, HS) and AM-IDJ, each over 16 k
      // strata, k anywhere in its stratum and new to the stream. HS-IDJ is
      // left out: at k = 10^4 its queue holds ~3M entries, and four of
      // those in flight push the process past 1 GB.
      static constexpr uint32_t kStrata = 16;
      const uint64_t at = st.issued % (4 * kStrata);
      if (at == 0) {
        st.batch = st.StratifiedCycle(
            {Kdj(core::KdjAlgorithm::kAmKdj, 0),
             Kdj(core::KdjAlgorithm::kBKdj, 0),
             Kdj(core::KdjAlgorithm::kHsKdj, 0),
             Idj(core::IdjAlgorithm::kAmIdj, 0)},
            kStrata, /*width=*/1.0, /*distinct=*/true);
      }
      request = st.batch[at];
      break;
    }
    case WorkloadKind::kServiceRepeat: {
      const uint64_t at = st.issued % kRepeatRoundSize;
      if (at == 0) st.batch = st.RepeatRound();
      request = st.batch[at];
      break;
    }
  }
  ++st.issued;
  if (request.fresh_service) st.seen.clear();
  if (!st.seen.insert(request).second) ++st.repeats;
  return request;
}

double RequestStream::repeat_share() const {
  return state_->issued == 0 ? 0.0
                             : static_cast<double>(state_->repeats) /
                                   static_cast<double>(state_->issued);
}

core::JoinOptions Env::DirectOptions() const {
  core::JoinOptions options;
  options.queue_memory_bytes = kDirectQueueMemory;
  options.queue_disk = timed_spill != nullptr
                           ? static_cast<storage::DiskManager*>(timed_spill.get())
                           : spill_disk.get();
  return options;
}

service::JoinRequest Env::ServiceRequest(const Request& request) const {
  service::JoinRequest out;
  out.kind = request.idj ? service::JoinRequest::Kind::kIdj
                         : service::JoinRequest::Kind::kKdj;
  out.kdj_algorithm = request.kdj;
  out.idj_algorithm = request.idj_algorithm;
  out.k = request.k;
  out.options.queue_memory_bytes = kServiceQueueMemory;
  return out;
}

void Env::RestartService() {
  service::JoinService::Options options;
  options.max_inflight = kServiceInflight;
  options.queue_memory_budget_bytes = kServiceQueueMemory * kServiceInflight;
  // With the predetermined (Eq. 3) segment boundaries the main queue routes
  // distant entries straight to disk piles even when memory is free, so
  // "enough memory" alone does not keep a service query from spilling.
  // Without a session spill disk the queues stay in memory.
  options.session_spill_disk = false;
  if (spec.kind == WorkloadKind::kServiceRepeat) {
    options.dedupe_inflight = true;
    options.shared_cache_entries = kServiceCacheEntries;
  }
  service.reset();
  service = std::make_unique<service::JoinService>(*r, *s, options);
}

uint64_t DataSeed() { return kDataSeed; }

std::unique_ptr<Env> MakeEnv(const WorkloadSpec& spec, bool timed,
                             SpanRecorder* spans) {
  auto env = std::make_unique<Env>();
  env->spec = spec;
  const auto fail = [](const Status& status, const char* what) {
    if (status.ok()) return;
    std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                 status.ToString().c_str());
    std::exit(1);
  };

  auto start = std::chrono::steady_clock::now();
  uint64_t span = spans != nullptr ? spans->Begin("setup.generate", 0) : 0;
  if (spec.kind == WorkloadKind::kIdjSkewed) {
    env->r_data =
        workload::ZipfSkewedPoints(spec.r_size, kZipfDataTheta, kDataSeed);
    env->s_data = workload::ZipfSkewedPoints(spec.s_size, kZipfDataTheta,
                                             kDataSeed + 1);
  } else {
    workload::TigerSynthOptions options;
    options.street_segments = spec.r_size;
    options.hydro_objects = spec.s_size;
    options.seed = kDataSeed;
    env->r_data = workload::TigerStreets(options);
    env->s_data = workload::TigerHydro(options);
  }
  if (spans != nullptr) spans->End(span);
  env->setup.generate = Seconds(start);

  start = std::chrono::steady_clock::now();
  span = spans != nullptr ? spans->Begin("setup.bulk_load", 0) : 0;
  env->tree_disk = std::make_unique<storage::InMemoryDiskManager>();
  env->spill_disk = std::make_unique<storage::InMemoryDiskManager>();
  storage::DiskManager* tree_io = env->tree_disk.get();
  if (timed) {
    env->timed_tree = std::make_unique<TimedDiskManager>(env->tree_disk.get());
    env->timed_spill =
        std::make_unique<TimedDiskManager>(env->spill_disk.get());
    tree_io = env->timed_tree.get();
  }
  env->pool = std::make_unique<storage::BufferPool>(
      tree_io, spec.is_service() ? kServiceBufferPages : kDirectBufferPages);
  const rtree::RTree::Options tree_options;
  auto r = rtree::RTree::Create(env->pool.get(), tree_options);
  fail(r.status(), "RTree::Create");
  env->r = std::move(*r);
  auto s = rtree::RTree::Create(env->pool.get(), tree_options);
  fail(s.status(), "RTree::Create");
  env->s = std::move(*s);
  fail(env->r->BulkLoad(env->r_data.ToEntries()), "BulkLoad");
  fail(env->s->BulkLoad(env->s_data.ToEntries()), "BulkLoad");
  fail(env->pool->FlushAll(), "BufferPool::FlushAll");
  if (spans != nullptr) spans->End(span);
  env->setup.bulk_load = Seconds(start);

  if (spec.is_service()) {
    start = std::chrono::steady_clock::now();
    // Warm: drop everything, then fetch every tree page once, so the timed
    // requests start from a pool that holds the whole tree.
    fail(env->pool->Clear(), "BufferPool::Clear");
    for (storage::PageId page = 0; page < env->tree_disk->PageCount();
         ++page) {
      auto guard = env->pool->FetchPage(page);
      fail(guard.status(), "BufferPool::FetchPage");
    }
    env->RestartService();
    env->setup.service = Seconds(start);
  }
  return env;
}

}  // namespace amdj::perfbench
