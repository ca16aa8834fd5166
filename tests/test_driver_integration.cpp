// Integration tests: full jobs end-to-end on small clusters, across all
// four schedulers, checking the invariants that make experiment results
// meaningful (exactly-once BUs, phase accounting, metric sanity).
#include <gtest/gtest.h>

#include <set>

#include "cluster/presets.hpp"
#include "hdfs/namenode.hpp"
#include "mr/driver.hpp"
#include "recover/runner.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

using workloads::InputScale;
using workloads::RunConfig;
using workloads::SchedulerKind;

workloads::Benchmark small_bench(double shuffle_ratio = 0.25) {
  workloads::Benchmark bench = workloads::benchmark("WC");
  bench.small_input = 512.0;  // 64 BUs — fast to simulate
  bench.shuffle_ratio = shuffle_ratio;
  return bench;
}

void check_invariants(const mr::JobResult& result, std::size_t total_bus) {
  // Every BU credited exactly once across successful map tasks.
  std::size_t credited = 0;
  for (const auto& task : result.tasks) {
    if (task.kind != mr::TaskKind::kMap) continue;
    if (task.status != mr::TaskStatus::kKilled) credited += task.num_bus;
    EXPECT_GE(task.end_time, task.dispatch_time);
    if (task.status == mr::TaskStatus::kCompleted) {
      EXPECT_GT(task.compute_start, task.dispatch_time);
      EXPECT_GT(task.productivity(), 0.0);
      EXPECT_LE(task.productivity(), 1.0);
    }
  }
  EXPECT_EQ(credited, total_bus);

  EXPECT_GT(result.jct(), 0.0);
  EXPECT_GE(result.map_phase_end, result.map_phase_start);
  EXPECT_LE(result.map_phase_end, result.finish_time + 1e-9);
  EXPECT_GT(result.efficiency(), 0.0);
  EXPECT_LE(result.efficiency(), 1.0 + 1e-9);
}

class AllSchedulers : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(AllSchedulers, HomogeneousJobCompletesWithInvariants) {
  auto cluster = cluster::presets::homogeneous6();
  const auto bench = small_bench();
  const auto result = workloads::run_job(cluster, bench, InputScale::kSmall,
                                         GetParam(), RunConfig{});
  check_invariants(result, 64);
}

TEST_P(AllSchedulers, HeterogeneousJobCompletesWithInvariants) {
  auto cluster = cluster::presets::heterogeneous6();
  const auto bench = small_bench();
  const auto result = workloads::run_job(cluster, bench, InputScale::kSmall,
                                         GetParam(), RunConfig{});
  check_invariants(result, 64);
}

TEST_P(AllSchedulers, MapOnlyJobSkipsReducePhase) {
  auto cluster = cluster::presets::homogeneous6();
  const auto bench = small_bench(/*shuffle_ratio=*/0.0);
  const auto result = workloads::run_job(cluster, bench, InputScale::kSmall,
                                         GetParam(), RunConfig{});
  check_invariants(result, 64);
  EXPECT_EQ(result.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted),
            0u);
  EXPECT_DOUBLE_EQ(result.map_phase_end, result.finish_time);
}

TEST_P(AllSchedulers, DeterministicGivenSeed) {
  const auto bench = small_bench();
  RunConfig config;
  config.params.seed = 77;
  auto c1 = cluster::presets::heterogeneous6();
  auto c2 = cluster::presets::heterogeneous6();
  const auto a =
      workloads::run_job(c1, bench, InputScale::kSmall, GetParam(), config);
  const auto b =
      workloads::run_job(c2, bench, InputScale::kSmall, GetParam(), config);
  EXPECT_DOUBLE_EQ(a.jct(), b.jct());
  EXPECT_EQ(a.tasks.size(), b.tasks.size());
}

TEST_P(AllSchedulers, VirtualClusterWithDynamicInterferenceCompletes) {
  auto cluster = cluster::presets::virtual20();
  const auto bench = small_bench();
  const auto result = workloads::run_job(cluster, bench, InputScale::kSmall,
                                         GetParam(), RunConfig{});
  check_invariants(result, 64);
}

std::string scheduler_test_name(
    const ::testing::TestParamInfo<SchedulerKind>& param_info) {
  std::string label = workloads::scheduler_label(param_info.param);
  std::erase_if(label, [](char c) { return !std::isalnum(
      static_cast<unsigned char>(c)); });
  return label;
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, AllSchedulers,
    ::testing::Values(SchedulerKind::kHadoop, SchedulerKind::kHadoopNoSpec,
                      SchedulerKind::kSkewTune, SchedulerKind::kFlexMap),
    scheduler_test_name);

TEST(DriverIntegration, ReduceTasksRunAfterMapPhase) {
  auto cluster = cluster::presets::homogeneous6();
  const auto bench = small_bench(0.5);
  const auto result = workloads::run_job(cluster, bench, InputScale::kSmall,
                                         SchedulerKind::kHadoopNoSpec,
                                         RunConfig{});
  // Auto-sizing: intermediate = 512 * 0.5 = 256 MiB at 64 MiB per reducer.
  const auto reducers =
      result.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted);
  EXPECT_EQ(reducers, 4u);
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kReduce) {
      EXPECT_GE(task.dispatch_time, result.map_phase_end - 1e-9);
    }
  }
}

TEST(DriverIntegration, ReduceInputsSumToIntermediateData) {
  auto cluster = cluster::presets::homogeneous6();
  const auto bench = small_bench(0.5);
  const auto result = workloads::run_job(cluster, bench, InputScale::kSmall,
                                         SchedulerKind::kHadoopNoSpec,
                                         RunConfig{});
  double reduce_input = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kReduce) reduce_input += task.input_mib;
  }
  EXPECT_NEAR(reduce_input, 512.0 * 0.5, 1e-6);
}

TEST(DriverIntegration, StockTaskCountEqualsBlockCount) {
  auto cluster = cluster::presets::homogeneous6();
  const auto bench = small_bench();
  RunConfig config;
  config.block_size = 64.0;  // 512 MiB / 64 = 8 blocks
  const auto result = workloads::run_job(cluster, bench, InputScale::kSmall,
                                         SchedulerKind::kHadoopNoSpec,
                                         config);
  EXPECT_EQ(result.map_tasks_launched(), 8u);
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap) {
      EXPECT_EQ(task.num_bus, 8u);  // 64 MiB block = 8 BUs
    }
  }
}

TEST(DriverIntegration, DriverDestructionRemovesItsSpeedListeners) {
  // Regression: JobDriver::start() registers [this] lambdas on every
  // machine. The cluster outlives the driver when jobs run sequentially,
  // so a destroyed driver must leave no dangling callbacks behind — a
  // later set_multiplier() on the shared cluster was a use-after-free.
  auto cluster = cluster::presets::heterogeneous6();
  const auto bench = small_bench();
  const auto spec = workloads::to_job_spec(bench, InputScale::kSmall);
  mr::SimParams params;
  params.seed = 5;
  Rng rng(5);
  hdfs::NameNode nn(cluster.num_nodes(), hdfs::PlacementPolicy::kRandom,
                    rng.split());
  const auto layout = nn.create_file(bench.small_input, kDefaultBlockMiB, 3);

  {
    Simulator sim;
    auto scheduler =
        workloads::make_scheduler(SchedulerKind::kFlexMap, params.seed);
    cluster.reset();
    recover::RecoveryRunner runner(sim, cluster, layout, spec, params,
                                   *scheduler, faults::FaultPlan{});
    const auto result = runner.run();
    EXPECT_GT(result.jct(), 0.0);
    for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
      EXPECT_GE(cluster.machine(n).num_speed_listeners(), 1u);
    }
  }
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(cluster.machine(n).num_speed_listeners(), 0u);
  }
  // A speed change on the shared cluster now touches no stale callback...
  cluster.machine(0).set_multiplier(0.5);

  // ...and a second job back-to-back on the same cluster runs normally.
  const auto second = workloads::run_job(
      cluster, bench, InputScale::kSmall, SchedulerKind::kFlexMap,
      RunConfig{});
  check_invariants(second, 64);
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_EQ(cluster.machine(n).num_speed_listeners(), 0u);
  }
}

TEST(DriverIntegration, MapPhaseRuntimeSpansAllMapTasks) {
  auto cluster = cluster::presets::heterogeneous6();
  const auto bench = small_bench();
  const auto result = workloads::run_job(cluster, bench, InputScale::kSmall,
                                         SchedulerKind::kHadoop, RunConfig{});
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap) {
      EXPECT_LE(task.end_time, result.map_phase_end + 1e-9);
      EXPECT_GE(task.dispatch_time, result.map_phase_start - 1e-9);
    }
  }
}

}  // namespace
}  // namespace flexmr
