#ifndef AMDJ_PERFBENCH_WORKLOADS_H_
#define AMDJ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/distance_join.h"
#include "rtree/rtree.h"
#include "service/join_service.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "timed_disk.h"
#include "workload/dataset.h"

/// \file
/// The four named workloads: their data, their environment (trees, buffer,
/// spill disk, service) and their request streams. The data is fixed per
/// workload; the request stream is a function of the seed.

namespace amdj::perfbench {

class SpanRecorder;

enum class WorkloadKind { kKdjSpill, kIdjSkewed, kServiceMixed, kServiceRepeat };

struct WorkloadSpec {
  WorkloadKind kind;
  std::string name;
  uint64_t r_size = 0;
  uint64_t s_size = 0;
  /// Direct workloads: one pass over a fixed batch of this many requests;
  /// the timed run cycles the batch. Service workloads: requests in the
  /// traced run's pass (the timed run streams new requests).
  uint32_t batch = 0;
  uint64_t k_min = 0;
  uint64_t k_max = 0;

  bool is_service() const {
    return kind == WorkloadKind::kServiceMixed ||
           kind == WorkloadKind::kServiceRepeat;
  }
};

/// Looks up a workload by name; false when unknown.
bool FindWorkload(const std::string& name, WorkloadSpec* spec);
/// Every workload name, for the usage message.
std::string WorkloadNames();

struct Request {
  bool idj = false;
  core::KdjAlgorithm kdj = core::KdjAlgorithm::kAmKdj;
  core::IdjAlgorithm idj_algorithm = core::IdjAlgorithm::kAmIdj;
  uint64_t k = 0;
  /// Service workloads: submitted only once every earlier request has
  /// completed.
  bool barrier = false;
  /// Also submitted to a fresh service (empty shared-work state); implies
  /// `barrier`.
  bool fresh_service = false;

  std::string Label() const;
  bool operator<(const Request& o) const;
};

/// Deterministic request source: Next() returns request 0, 1, 2, ... of
/// the workload's stream for this seed.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, uint64_t seed);
  ~RequestStream();
  RequestStream(const RequestStream&) = delete;
  RequestStream& operator=(const RequestStream&) = delete;

  Request Next();
  /// Share of requests so far whose (algorithm, k) appeared earlier on
  /// the same service (since the last `fresh_service` request).
  double repeat_share() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Timings of one environment build, all in seconds.
struct SetupTimes {
  double generate = 0.0;
  double bulk_load = 0.0;
  double service = 0.0;  ///< Service construction + buffer warm-up.
  double total() const { return generate + bulk_load + service; }
};

/// Trees over the workload's data, their buffer pool and spill disk, and
/// (service workloads) a JoinService in front of them. With `timed`, the
/// tree and spill disks sit behind TimedDiskManager decorators.
struct Env {
  WorkloadSpec spec;
  workload::Dataset r_data;
  workload::Dataset s_data;
  std::unique_ptr<storage::InMemoryDiskManager> tree_disk;
  std::unique_ptr<storage::InMemoryDiskManager> spill_disk;
  std::unique_ptr<TimedDiskManager> timed_tree;
  std::unique_ptr<TimedDiskManager> timed_spill;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<rtree::RTree> r;
  std::unique_ptr<rtree::RTree> s;
  std::unique_ptr<service::JoinService> service;
  SetupTimes setup;

  /// Options for a direct (non-service) request: library defaults plus the
  /// workload's queue memory and spill disk.
  core::JoinOptions DirectOptions() const;
  /// A service request for `request`.
  service::JoinRequest ServiceRequest(const Request& request) const;
  /// Replaces the service with a fresh one (empty shared-work state, zeroed
  /// admission counters).
  void RestartService();
};

/// Seed of the (fixed) workload data.
uint64_t DataSeed();

/// Builds the environment. `spans` (optional) receives setup.generate and
/// setup.bulk_load spans.
std::unique_ptr<Env> MakeEnv(const WorkloadSpec& spec, bool timed,
                             SpanRecorder* spans);

}  // namespace amdj::perfbench

#endif  // AMDJ_PERFBENCH_WORKLOADS_H_
