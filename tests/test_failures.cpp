// Failure injection: node loss, task re-execution, and the exactly-once
// invariant under failures, across all schedulers.
#include <gtest/gtest.h>

#include "cluster/presets.hpp"
#include "mr/driver.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

using workloads::InputScale;
using workloads::RunConfig;
using workloads::SchedulerKind;

workloads::Benchmark bench_with(MiB input, double shuffle) {
  auto bench = workloads::benchmark("WC");
  bench.small_input = input;
  bench.shuffle_ratio = shuffle;
  return bench;
}

/// Appends an oracle-detected, permanent crash of `node` at `at`.
void crash(RunConfig& config, NodeId node, SimTime at) {
  config.faults.crashes.push_back(
      faults::NodeCrash{node, at, std::nullopt, /*silent=*/false});
}

void check_exactly_once(const mr::JobResult& result,
                        std::size_t total_bus) {
  std::size_t credited = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      credited += task.num_bus;
    }
  }
  EXPECT_EQ(credited, total_bus);
}

class FailureSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(FailureSweep, MidMapPhaseFailureStillCompletes) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  crash(config, 2, 20.0);  // mid map phase
  const auto result = workloads::run_job(
      cluster, bench_with(2048.0, 0.25), InputScale::kSmall, GetParam(),
      config);
  check_exactly_once(result, 256);
  // The dead node ran nothing after t=20.
  for (const auto& task : result.tasks) {
    if (task.node == 2) {
      EXPECT_LT(task.dispatch_time, 20.0 + 1e-9);
    }
  }
}

TEST_P(FailureSweep, LostOutputsAreReexecuted) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  // 4096 MiB → ~2.7 waves of 64 MB maps (~25 s map phase); at t=12 the
  // first wave on node 0 has completed but the phase is far from done.
  crash(config, 0, 12.0);
  const auto result = workloads::run_job(
      cluster, bench_with(4096.0, 0.5), InputScale::kSmall, GetParam(),
      config);
  check_exactly_once(result, 512);
  // Node 0 completed maps before dying; those must be marked lost.
  EXPECT_GT(result.count(mr::TaskKind::kMap, mr::TaskStatus::kLostOutput),
            0u)
      << workloads::scheduler_label(GetParam());
}

TEST_P(FailureSweep, MapOnlyJobKeepsDeadNodesOutputs) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  crash(config, 1, 30.0);
  const auto result = workloads::run_job(
      cluster, bench_with(2048.0, 0.0), InputScale::kSmall, GetParam(),
      config);
  // Map-only output is committed to HDFS: nothing is "lost", only the
  // node's running tasks re-execute.
  EXPECT_EQ(result.count(mr::TaskKind::kMap, mr::TaskStatus::kLostOutput),
            0u);
  check_exactly_once(result, 256);
}

TEST_P(FailureSweep, FailureDuringReducePhaseRequeuesReducers) {
  auto cluster = cluster::presets::homogeneous6();
  // First find when the map phase ends, then fail just after it.
  RunConfig probe;
  const auto reference = workloads::run_job(
      cluster, bench_with(1024.0, 1.0), InputScale::kSmall, GetParam(),
      probe);
  const SimTime fail_at =
      reference.map_phase_end + reference.jct() * 0.02 + 1.0;
  RunConfig config;
  crash(config, 3, fail_at);
  auto cluster2 = cluster::presets::homogeneous6();
  const auto result = workloads::run_job(
      cluster2, bench_with(1024.0, 1.0), InputScale::kSmall, GetParam(),
      config);
  // All reducers still complete, none on the dead node after the failure.
  EXPECT_EQ(result.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted),
            reference.count(mr::TaskKind::kReduce,
                            mr::TaskStatus::kCompleted));
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kReduce) {
      EXPECT_TRUE(task.node != 3 || task.end_time <= fail_at + 1e-9);
    }
  }
}

TEST_P(FailureSweep, MultipleFailures) {
  auto cluster = cluster::presets::physical12();
  RunConfig config;
  crash(config, 5, 15.0);
  crash(config, 9, 40.0);
  const auto result = workloads::run_job(
      cluster, bench_with(2048.0, 0.25), InputScale::kSmall, GetParam(),
      config);
  check_exactly_once(result, 256);
}

TEST_P(FailureSweep, FailureCostsTimeButBoundedly) {
  auto baseline_cluster = cluster::presets::homogeneous6();
  const auto baseline = workloads::run_job(
      baseline_cluster, bench_with(2048.0, 0.25), InputScale::kSmall,
      GetParam(), RunConfig{});
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  crash(config, 2, 20.0);
  const auto failed = workloads::run_job(
      cluster, bench_with(2048.0, 0.25), InputScale::kSmall, GetParam(),
      config);
  EXPECT_GT(failed.jct(), baseline.jct() * 0.95);
  EXPECT_LT(failed.jct(), baseline.jct() * 2.5);  // recovery, not collapse
}

std::string failure_param_name(
    const ::testing::TestParamInfo<SchedulerKind>& info) {
  std::string label = workloads::scheduler_label(info.param);
  std::erase_if(label, [](char c) {
    return !std::isalnum(static_cast<unsigned char>(c));
  });
  return label;
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, FailureSweep,
    ::testing::Values(SchedulerKind::kHadoop, SchedulerKind::kHadoopNoSpec,
                      SchedulerKind::kSkewTune, SchedulerKind::kFlexMap),
    failure_param_name);

TEST(Failures, SchedulingAfterRunStartThrows) {
  auto cluster = cluster::presets::homogeneous6();
  Simulator sim;
  const auto layout = workloads::make_layout(
      workloads::benchmark("WC"), InputScale::kSmall, cluster.num_nodes(),
      64.0, 3, 1);
  auto spec = workloads::to_job_spec(workloads::benchmark("WC"),
                                     InputScale::kSmall);
  const auto scheduler =
      workloads::make_scheduler(SchedulerKind::kHadoopNoSpec);
  mr::JobDriver driver(sim, cluster, layout, spec, mr::SimParams{},
                       *scheduler);
  driver.start();
  EXPECT_THROW(driver.install_faults(faults::FaultPlan{}), InvariantError);
}

TEST(Failures, DeadNodeSlotsWithdrawnFromRm) {
  auto cluster = cluster::presets::homogeneous6();
  yarn::ResourceManager rm(cluster);
  const auto before = rm.total_slots();
  rm.mark_dead(2);
  EXPECT_TRUE(rm.is_dead(2));
  EXPECT_EQ(rm.total_slots(), before - cluster.machine(2).slots());
  EXPECT_EQ(rm.free_slots(2), 0u);
  rm.release(2);  // ignored
  EXPECT_EQ(rm.free_slots(2), 0u);
  rm.mark_dead(2);  // idempotent
  EXPECT_EQ(rm.total_slots(), before - cluster.machine(2).slots());
}

}  // namespace
}  // namespace flexmr
