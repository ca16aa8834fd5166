// SimParams knobs: each parameter must move the simulation in the
// direction it claims, and the observability (Eq. 3 estimates) must track
// ground truth.
#include <gtest/gtest.h>

#include "cluster/presets.hpp"
#include "flexmap/flexmap_scheduler.hpp"
#include "recover/runner.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

using workloads::InputScale;
using workloads::RunConfig;
using workloads::SchedulerKind;

workloads::Benchmark wc(MiB input, double shuffle = 0.25) {
  auto bench = workloads::benchmark("WC");
  bench.small_input = input;
  bench.shuffle_ratio = shuffle;
  return bench;
}

mr::JobResult run(const RunConfig& config, MiB input = 1024.0,
                  double shuffle = 0.25,
                  SchedulerKind kind = SchedulerKind::kHadoopNoSpec) {
  auto cluster = cluster::presets::homogeneous6();
  return workloads::run_job(cluster, wc(input, shuffle), InputScale::kSmall,
                            kind, config);
}

TEST(SimParams, HigherStartupCostSlowsJob) {
  RunConfig cheap;
  cheap.params.jvm_startup_s = 0.5;
  RunConfig expensive;
  expensive.params.jvm_startup_s = 6.0;
  EXPECT_LT(run(cheap).jct(), run(expensive).jct());
}

TEST(SimParams, StartupCostLowersProductivity) {
  RunConfig cheap;
  cheap.params.jvm_startup_s = 0.1;
  cheap.params.container_alloc_s = 0.1;
  RunConfig expensive;
  expensive.params.jvm_startup_s = 6.0;
  EXPECT_GT(run(cheap).mean_map_productivity(),
            run(expensive).mean_map_productivity() + 0.2);
}

TEST(SimParams, ZeroExecNoiseIsPerfectlyRegular) {
  // Remove every variance source: exec noise, record skew, remote reads.
  auto cluster = cluster::presets::homogeneous6();
  auto bench = wc(1024.0, 0.0);
  bench.record_skew = 0.0;
  RunConfig config;
  config.params.exec_noise_sigma = 0.0;
  config.params.remote_read_penalty = 0.0;
  const auto result =
      workloads::run_job(cluster, bench, InputScale::kSmall,
                         SchedulerKind::kHadoopNoSpec, config);
  // All 64 MB map tasks on identical machines take identical time.
  SampleSet runtimes = result.map_runtimes();
  EXPECT_LT(runtimes.cv(), 1e-9);
}

TEST(SimParams, ExecNoiseWidensRuntimeSpread) {
  RunConfig noisy;
  noisy.params.exec_noise_sigma = 0.3;
  const auto result = run(noisy, 1024.0, 0.0);
  EXPECT_GT(result.map_runtimes().cv(), 0.1);
}

TEST(SimParams, ReducerInputTargetControlsReducerCount) {
  RunConfig coarse;
  coarse.params.reducer_input_target = 256.0;
  RunConfig fine;
  fine.params.reducer_input_target = 32.0;
  const auto few = run(coarse, 1024.0, 1.0);
  const auto many = run(fine, 1024.0, 1.0);
  EXPECT_LT(few.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted),
            many.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted));
  // 1024 MiB intermediate / 256 → 4; / 32 → 32 (≤ 24 slots → clamped).
  EXPECT_EQ(few.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted),
            4u);
  EXPECT_EQ(many.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted),
            24u);
}

TEST(SimParams, ExplicitReducerCountWins) {
  auto cluster = cluster::presets::homogeneous6();
  auto bench = wc(1024.0, 1.0);
  Simulator sim;
  const auto layout = workloads::make_layout(
      bench, InputScale::kSmall, cluster.num_nodes(), 64.0, 3, 1);
  auto spec = workloads::to_job_spec(bench, InputScale::kSmall, 7);
  const auto scheduler =
      workloads::make_scheduler(SchedulerKind::kHadoopNoSpec);
  recover::RecoveryRunner runner(sim, cluster, layout, spec, mr::SimParams{},
                                 *scheduler, faults::FaultPlan{});
  const auto result = runner.run();
  EXPECT_EQ(result.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted),
            7u);
}

TEST(SimParams, ShuffleOverlapHidesFetchOnSlowNetworks) {
  // A 1 GbE-ish NIC makes the reduce fetch visible; full overlap hides it.
  auto make_cluster = []() {
    cluster::MachineSpec node{.model = "1GbE worker", .base_ips = 10.0,
                              .slots = 4, .nic_bandwidth = 110.0,
                              .memory_gb = 16.0};
    return cluster::ClusterBuilder().add(node, 6).build();
  };
  auto run_overlap = [&](double overlap) {
    auto cluster = make_cluster();
    RunConfig config;
    config.params.shuffle_overlap = overlap;
    config.params.exec_noise_sigma = 0.0;
    return workloads::run_job(cluster, wc(1024.0, 1.0), InputScale::kSmall,
                              SchedulerKind::kHadoopNoSpec, config);
  };
  const auto hidden = run_overlap(1.0);
  const auto exposed = run_overlap(0.0);
  EXPECT_LT(hidden.jct(), exposed.jct());
  // Map phases are identical; the whole gap is fetch time.
  EXPECT_NEAR(hidden.map_phase_runtime(), exposed.map_phase_runtime(),
              1e-9);
}

TEST(Observability, ObservedIpsTracksGroundTruthOnBigTasks) {
  auto cluster = cluster::presets::heterogeneous6();
  flexmap::FlexMapScheduler scheduler;
  RunConfig config;
  config.params.exec_noise_sigma = 0.0;  // no noise → exact estimates
  workloads::run_job(cluster, wc(4096.0, 0.0), InputScale::kSmall,
                     scheduler, config);
  const auto& monitor = scheduler.speed_monitor();
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    const auto observed = monitor.get_speed(n);
    ASSERT_TRUE(observed.has_value()) << n;
    // WC map_cost is 1.0 so IPS ≈ effective speed; late small tasks bias
    // estimates slightly, so allow a modest band.
    EXPECT_NEAR(*observed, cluster.machine(n).effective_ips(),
                0.35 * cluster.machine(n).effective_ips())
        << n;
  }
}

TEST(Observability, HeartbeatPeriodRespected) {
  // A much longer heartbeat postpones the first speed estimates, so
  // FlexMap's horizontal scaling starts later — the job still completes
  // and the invariants hold.
  RunConfig slow_hb;
  slow_hb.params.heartbeat_period_s = 30.0;
  const auto result =
      run(slow_hb, 1024.0, 0.25, SchedulerKind::kFlexMap);
  std::size_t credited = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      credited += task.num_bus;
    }
  }
  EXPECT_EQ(credited, 128u);
}

}  // namespace
}  // namespace flexmr
