#include "workloads/experiment.hpp"

#include "common/error.hpp"
#include "flexmap/flexmap_scheduler.hpp"
#include "recover/runner.hpp"
#include "sched/skewtune.hpp"
#include "sched/stock.hpp"
#include "simcore/simulator.hpp"

namespace flexmr::workloads {

std::string scheduler_label(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kHadoop: return "Hadoop";
    case SchedulerKind::kHadoopNoSpec: return "Hadoop-nospec";
    case SchedulerKind::kSkewTune: return "SkewTune";
    case SchedulerKind::kFlexMap: return "FlexMap";
    case SchedulerKind::kFlexMapNoVertical: return "FlexMap-noV";
    case SchedulerKind::kFlexMapNoHorizontal: return "FlexMap-noH";
    case SchedulerKind::kFlexMapNoReduceBias: return "FlexMap-noRB";
  }
  throw ConfigError("unknown scheduler kind");
}

std::unique_ptr<mr::Scheduler> make_scheduler(SchedulerKind kind,
                                              std::uint64_t /*seed*/) {
  using sched::SkewTuneScheduler;
  using sched::StockHadoopScheduler;
  using sched::StockOptions;
  switch (kind) {
    case SchedulerKind::kHadoop:
      return std::make_unique<StockHadoopScheduler>();
    case SchedulerKind::kHadoopNoSpec:
      return std::make_unique<StockHadoopScheduler>(
          StockOptions{.speculation = false});
    case SchedulerKind::kSkewTune:
      return std::make_unique<SkewTuneScheduler>();
    case SchedulerKind::kFlexMap:
      return std::make_unique<flexmap::FlexMapScheduler>();
    case SchedulerKind::kFlexMapNoVertical: {
      flexmap::FlexMapOptions options;
      options.sizing.vertical = false;
      return std::make_unique<flexmap::FlexMapScheduler>(options);
    }
    case SchedulerKind::kFlexMapNoHorizontal: {
      flexmap::FlexMapOptions options;
      options.sizing.horizontal = false;
      return std::make_unique<flexmap::FlexMapScheduler>(options);
    }
    case SchedulerKind::kFlexMapNoReduceBias: {
      flexmap::FlexMapOptions options;
      options.reduce_bias = false;
      return std::make_unique<flexmap::FlexMapScheduler>(options);
    }
  }
  throw ConfigError("unknown scheduler kind");
}

mr::JobResult run_job(cluster::Cluster& cluster, const Benchmark& bench,
                      InputScale scale, mr::Scheduler& scheduler,
                      const RunConfig& config) {
  cluster.reset();
  Simulator sim;
  // Admission check: rs(k,m) needs k+m distinct holders among the nodes
  // that are actually up when the file is written (t=0). Nodes crashing
  // later degrade reads; nodes already down shrink the placement domain.
  std::uint32_t alive0 = cluster.num_nodes();
  for (const auto& crash : config.faults.crashes) {
    if (crash.at <= 0.0) --alive0;
  }
  config.storage.validate(alive0);
  const auto layout =
      make_layout(bench, scale, cluster.num_nodes(), config.block_size,
                  config.replication, config.params.seed, config.storage);
  recover::RecoveryRunner runner(sim, cluster, layout,
                                 to_job_spec(bench, scale), config.params,
                                 scheduler, config.faults, config.trace);
  auto result = runner.run();
  result.scheduler = scheduler.name();
  return result;
}

std::vector<mr::JobResult> run_iterations(cluster::Cluster& cluster,
                                          const Benchmark& bench,
                                          InputScale scale,
                                          mr::Scheduler& scheduler,
                                          RunConfig config,
                                          std::uint32_t iterations) {
  FLEXMR_ASSERT(iterations > 0);
  std::vector<mr::JobResult> results;
  results.reserve(iterations);
  const std::uint64_t base_seed = config.params.seed;
  for (std::uint32_t i = 0; i < iterations; ++i) {
    config.params.seed = base_seed + 7919ull * i;
    results.push_back(run_job(cluster, bench, scale, scheduler, config));
  }
  return results;
}

mr::JobResult run_job(cluster::Cluster& cluster, const Benchmark& bench,
                      InputScale scale, SchedulerKind kind,
                      const RunConfig& config) {
  const auto scheduler = make_scheduler(kind, config.params.seed);
  auto result = run_job(cluster, bench, scale, *scheduler, config);
  result.scheduler = scheduler_label(kind);
  return result;
}

}  // namespace flexmr::workloads
