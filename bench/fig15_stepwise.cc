// Figure 15: step-wise incremental execution. A user repeatedly requests
// 10,000 more pairs until 100,000 are produced. Cumulative response time
// after each step for: HS-IDJ, AM-IDJ with estimated eDmax, AM-IDJ driven
// by the *real* Dmax schedule (which compensates every step), and SJ-SORT
// restarted from scratch for each new cardinality (costs accumulate).

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/amidj.h"
#include "core/cost_model.h"

namespace amdj::bench {
namespace {

constexpr uint64_t kStep = 10000;
constexpr uint64_t kTotal = 100000;

/// Cumulative response time after each 10k batch for one cursor run.
template <typename NextBatch>
std::vector<double> MeasureCursor(BenchEnv& env, NextBatch&& next_batch) {
  std::vector<double> cumulative;
  const Status s = env.pool->Clear();
  AMDJ_CHECK(s.ok()) << s.ToString();
  const core::CostModel model;
  storage::DiskStats tree0 = env.tree_disk->stats();
  storage::DiskStats queue0 = env.queue_disk->stats();
  double cpu = 0.0;
  for (uint64_t step = 1; step <= kTotal / kStep; ++step) {
    Timer timer;
    next_batch(step);
    cpu += timer.ElapsedSeconds();
    const double io =
        model.Seconds(core::CostModel::Delta(tree0, env.tree_disk->stats())) +
        model.Seconds(
            core::CostModel::Delta(queue0, env.queue_disk->stats()));
    cumulative.push_back(cpu + io);
  }
  return cumulative;
}

void Run(int argc, char** argv) {
  BenchEnv env = MakeTigerEnv(BenchConfig::FromArgs(argc, argv));
  PrintHeader(
      "Figure 15: step-wise incremental execution (10k pairs per step)",
      env);

  // The true Dmax at each step boundary, for the oracle-driven AM-IDJ.
  auto full = core::RunKDistanceJoin(*env.streets, *env.hydro, kTotal,
                                     core::KdjAlgorithm::kBKdj,
                                     env.MakeJoinOptions(), nullptr);
  AMDJ_CHECK(full.ok()) << full.status().ToString();
  AMDJ_CHECK(full->size() == kTotal);
  std::vector<double> step_dmax;
  for (uint64_t step = 1; step <= kTotal / kStep; ++step) {
    step_dmax.push_back((*full)[step * kStep - 1].distance);
  }

  auto drain = [](core::DistanceJoinCursor& cursor, uint64_t n) {
    core::ResultPair pair;
    bool done = false;
    for (uint64_t i = 0; i < n && !done; ++i) {
      const Status s = cursor.Next(&pair, &done);
      AMDJ_CHECK(s.ok()) << s.ToString();
    }
  };

  // HS-IDJ and AM-IDJ (estimated eDmax) through the umbrella API.
  std::vector<std::vector<double>> series;
  std::vector<std::string> names;
  std::vector<JoinStats> work;  // per cursor series, after the last step
  for (const auto algorithm :
       {core::IdjAlgorithm::kHsIdj, core::IdjAlgorithm::kAmIdj}) {
    JoinStats stats;
    auto cursor = core::OpenIncrementalJoin(*env.streets, *env.hydro,
                                            algorithm, env.MakeJoinOptions(),
                                            &stats);
    AMDJ_CHECK(cursor.ok()) << cursor.status().ToString();
    names.push_back(core::ToString(algorithm) +
                    std::string(algorithm == core::IdjAlgorithm::kAmIdj
                                    ? " (est)"
                                    : ""));
    series.push_back(MeasureCursor(env, [&](uint64_t step) {
      (*cursor)->PrefetchHint(step * kStep);
      drain(**cursor, kStep);
    }));
    work.push_back(stats);
  }

  // AM-IDJ driven by the true Dmax of each step.
  {
    JoinStats stats;
    env.pool->SetStatsSink(&stats);
    core::AmIdjCursor cursor(*env.streets, *env.hydro, env.MakeJoinOptions(),
                             &stats);
    names.push_back("AM-IDJ (real Dmax)");
    series.push_back(MeasureCursor(env, [&](uint64_t step) {
      cursor.ForceNextStageEdmax(geom::DistVal(step_dmax[step - 1]));
      drain(cursor, kStep);
    }));
    env.pool->SetStatsSink(nullptr);
    work.push_back(stats);
  }

  // SJ-SORT restarted per step; time accumulates across restarts.
  {
    names.push_back("SJ-SORT (restart)");
    std::vector<double> cumulative;
    const core::CostModel model;
    double total = 0.0;
    for (uint64_t step = 1; step <= kTotal / kStep; ++step) {
      const Status s = env.pool->Clear();
      AMDJ_CHECK(s.ok()) << s.ToString();
      storage::DiskStats tree0 = env.tree_disk->stats();
      storage::DiskStats queue0 = env.queue_disk->stats();
      JoinStats stats;
      Timer timer;
      auto result = core::RunKDistanceJoin(
          *env.streets, *env.hydro, step * kStep, core::KdjAlgorithm::kSjSort,
          env.MakeJoinOptions(), &stats);
      AMDJ_CHECK(result.ok()) << result.status().ToString();
      total += timer.ElapsedSeconds() +
               model.Seconds(
                   core::CostModel::Delta(tree0, env.tree_disk->stats())) +
               model.Seconds(
                   core::CostModel::Delta(queue0, env.queue_disk->stats()));
      cumulative.push_back(total);
    }
    series.push_back(cumulative);
  }

  const std::vector<int> widths = {20, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  std::vector<std::string> header = {"cumulative resp (s)"};
  for (uint64_t step = 1; step <= kTotal / kStep; ++step) {
    header.push_back(FormatCount(step * kStep / 1000) + "k");
  }
  PrintRow(header, widths);
  for (size_t i = 0; i < series.size(); ++i) {
    std::vector<std::string> row = {names[i]};
    for (double v : series[i]) row.push_back(FormatSeconds(v));
    PrintRow(row, widths);
  }

  // Host-independent work of the cursor series over all ten steps.
  std::printf("\n");
  const std::vector<int> work_widths = {20, 12, 12, 12, 12};
  PrintRow({"work @100k", "dist comp", "queue ins", "comp ins", "node acc"},
           work_widths);
  for (size_t i = 0; i < work.size(); ++i) {
    PrintRow({names[i], FormatCount(work[i].real_distance_computations),
              FormatCount(work[i].main_queue_insertions),
              FormatCount(work[i].compensation_queue_insertions),
              FormatCount(work[i].node_accesses)},
             work_widths);
  }
}

}  // namespace
}  // namespace amdj::bench

int main(int argc, char** argv) {
  amdj::bench::Run(argc, argv);
  return 0;
}
