// Experiment harness: composes a simulator, a cluster, a file layout, a
// scheduler and a JobDriver into one reproducible run. All benches,
// examples and integration tests go through this entry point.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "faults/fault_plan.hpp"
#include "mr/metrics.hpp"
#include "mr/params.hpp"
#include "mr/scheduler.hpp"
#include "workloads/puma.hpp"

namespace flexmr::obs {
class TraceSession;
}

namespace flexmr::workloads {

/// The four systems the paper compares, plus FlexMap ablation variants.
enum class SchedulerKind {
  kHadoop,          ///< Stock Hadoop with LATE speculation (YARN default).
  kHadoopNoSpec,    ///< Stock Hadoop, speculation disabled.
  kSkewTune,        ///< SkewTune straggler repartitioning.
  kFlexMap,         ///< The paper's system.
  kFlexMapNoVertical,    ///< Ablation: horizontal scaling only.
  kFlexMapNoHorizontal,  ///< Ablation: vertical scaling only.
  kFlexMapNoReduceBias,  ///< Ablation: uniform reduce placement.
};

std::string scheduler_label(SchedulerKind kind);

std::unique_ptr<mr::Scheduler> make_scheduler(SchedulerKind kind,
                                              std::uint64_t seed = 42);

struct RunConfig {
  MiB block_size = kDefaultBlockMiB;  ///< Stock split size (64 or 128 MB).
  std::uint32_t replication = 3;
  /// Storage policy for the input file: default 3× replication, or
  /// rs(k,m) erasure striping (`[storage]` in config files). Validated
  /// against the nodes alive at t=0 before the layout is built.
  hdfs::StoragePolicy storage;
  mr::SimParams params;  ///< params.seed controls the whole run.
  /// Declarative fault plan (crashes with rejoin, transient attempt
  /// failures, launch failures, degradation windows). Empty = no faults.
  faults::FaultPlan faults;
  /// Opt-in tracing: point at an obs::TraceSession to record spans,
  /// events and metrics for this run. Null (the default) disables all
  /// instrumentation; a run with tracing on is event-for-event identical
  /// to the same run with tracing off.
  obs::TraceSession* trace = nullptr;
};

/// Runs one job on `cluster` (which is reset first) and returns its
/// metrics. The same (bench, scale, config.seed) always produces the same
/// layout and interference trace, so scheduler comparisons are paired.
mr::JobResult run_job(cluster::Cluster& cluster, const Benchmark& bench,
                      InputScale scale, mr::Scheduler& scheduler,
                      const RunConfig& config);

/// Convenience: builds the scheduler from `kind` and runs.
mr::JobResult run_job(cluster::Cluster& cluster, const Benchmark& bench,
                      InputScale scale, SchedulerKind kind,
                      const RunConfig& config);

/// Iterative workloads (k-means-style): runs `iterations` consecutive
/// jobs of the same benchmark through ONE scheduler instance, with
/// per-iteration seeds derived from config.params.seed. A FlexMap
/// scheduler constructed with warm_start keeps its learned speeds and
/// size units between iterations and skips the ramp from iteration 2 on.
std::vector<mr::JobResult> run_iterations(cluster::Cluster& cluster,
                                          const Benchmark& bench,
                                          InputScale scale,
                                          mr::Scheduler& scheduler,
                                          RunConfig config,
                                          std::uint32_t iterations);

}  // namespace flexmr::workloads
