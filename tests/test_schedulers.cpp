// Behavioral tests of the scheduling policies, observed through full runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "bench/scale_grid.hpp"
#include "cluster/presets.hpp"
#include "common/rng.hpp"
#include "flexmap/flexmap_scheduler.hpp"
#include "flexmap/reduce_placer.hpp"
#include "mr/driver.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

using workloads::InputScale;
using workloads::RunConfig;
using workloads::SchedulerKind;

workloads::Benchmark tiny_wc(MiB input = 512.0, double shuffle = 0.0) {
  auto bench = workloads::benchmark("WC");
  bench.small_input = input;
  bench.shuffle_ratio = shuffle;
  return bench;
}

/// A cluster with one dramatic straggler node: 1/8 speed.
cluster::Cluster straggler_cluster() {
  return cluster::ClusterBuilder()
      .add(cluster::MachineSpec{.model = "fast", .base_ips = 12.0,
                                .slots = 4, .nic_bandwidth = 1192.0,
                                .memory_gb = 16.0},
           5)
      .add(cluster::MachineSpec{.model = "slow", .base_ips = 1.5,
                                .slots = 4, .nic_bandwidth = 1192.0,
                                .memory_gb = 16.0},
           1)
      .build();
}

TEST(StockScheduler, LaunchesOneMapPerBlock) {
  auto cluster = cluster::presets::homogeneous6();
  const auto result =
      workloads::run_job(cluster, tiny_wc(), InputScale::kSmall,
                         SchedulerKind::kHadoopNoSpec, RunConfig{});
  EXPECT_EQ(result.map_tasks_launched(), 8u);  // 512 MiB / 64 MiB
  EXPECT_EQ(result.count(mr::TaskKind::kMap, mr::TaskStatus::kKilled), 0u);
}

TEST(StockScheduler, NoSpecNeverSpeculates) {
  auto cluster = straggler_cluster();
  const auto result =
      workloads::run_job(cluster, tiny_wc(2048.0), InputScale::kSmall,
                         SchedulerKind::kHadoopNoSpec, RunConfig{});
  for (const auto& task : result.tasks) EXPECT_FALSE(task.speculative);
}

TEST(StockScheduler, LateSpeculatesOnStragglerNode) {
  auto cluster = straggler_cluster();
  const auto result =
      workloads::run_job(cluster, tiny_wc(2048.0), InputScale::kSmall,
                         SchedulerKind::kHadoop, RunConfig{});
  std::size_t speculative = 0;
  for (const auto& task : result.tasks) {
    if (task.speculative) ++speculative;
  }
  EXPECT_GT(speculative, 0u);
  // Speculation must help vs. no speculation on this cluster.
  auto cluster2 = straggler_cluster();
  const auto nospec =
      workloads::run_job(cluster2, tiny_wc(2048.0), InputScale::kSmall,
                         SchedulerKind::kHadoopNoSpec, RunConfig{});
  EXPECT_LT(result.jct(), nospec.jct());
}

TEST(StockScheduler, SpeculativeTwinConsistency) {
  auto cluster = straggler_cluster();
  const auto result =
      workloads::run_job(cluster, tiny_wc(2048.0), InputScale::kSmall,
                         SchedulerKind::kHadoop, RunConfig{});
  // For every killed task there is exactly one surviving twin covering the
  // same work: BUs credited exactly once overall.
  std::size_t credited = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      credited += task.num_bus;
    }
  }
  EXPECT_EQ(credited, 2048u / 8u);
}

TEST(SkewTune, MitigatesStragglerViaPartialTasks) {
  // Two fast nodes and one very slow node, with two waves of big splits:
  // the slow node must take tasks, and each becomes a straggler worth
  // splitting (256 MB at 1.5 MiB/s ≈ 170 s).
  auto make = []() {
    return cluster::ClusterBuilder()
        .add(cluster::MachineSpec{.model = "fast", .base_ips = 12.0,
                                  .slots = 4, .nic_bandwidth = 1192.0,
                                  .memory_gb = 16.0},
             2)
        .add(cluster::MachineSpec{.model = "slow", .base_ips = 1.5,
                                  .slots = 4, .nic_bandwidth = 1192.0,
                                  .memory_gb = 16.0},
             1)
        .build();
  };
  RunConfig config;
  config.block_size = 256.0;
  auto cluster = make();
  const auto result =
      workloads::run_job(cluster, tiny_wc(4096.0), InputScale::kSmall,
                         SchedulerKind::kSkewTune, config);
  EXPECT_GT(
      result.count(mr::TaskKind::kMap, mr::TaskStatus::kPartialCompleted),
      0u);
  // And it should clearly beat plain no-spec Hadoop here.
  auto cluster2 = make();
  const auto nospec =
      workloads::run_job(cluster2, tiny_wc(4096.0), InputScale::kSmall,
                         SchedulerKind::kHadoopNoSpec, config);
  EXPECT_LT(result.jct(), 0.9 * nospec.jct());
}

TEST(SkewTune, NoMitigationOnHomogeneousCluster) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.params.exec_noise_sigma = 0.0;  // nothing to mitigate
  const auto result =
      workloads::run_job(cluster, tiny_wc(2048.0), InputScale::kSmall,
                         SchedulerKind::kSkewTune, config);
  EXPECT_EQ(
      result.count(mr::TaskKind::kMap, mr::TaskStatus::kPartialCompleted),
      0u);
  EXPECT_EQ(result.count(mr::TaskKind::kMap, mr::TaskStatus::kKilled), 0u);
}

/// perfbench's `faults` plan with node crashes in the map phase: ~3 % of
/// the nodes crash silently between 15 and 45 s and rejoin 60-120 s later,
/// ~6 % lose one disk in the first minute, and attempts, launches and
/// fetches fail at 0.02-0.1 %.
faults::FaultPlan early_crash_plan(std::uint32_t nodes, std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedfa17ull);
  std::vector<NodeId> order(nodes);
  for (NodeId n = 0; n < nodes; ++n) order[n] = n;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  const std::uint32_t n_crash = std::max(1u, nodes * 3 / 100);
  const std::uint32_t n_disk = std::max(1u, nodes * 6 / 100);
  faults::FaultPlan plan;
  for (std::uint32_t i = 0; i < n_crash; ++i) {
    const SimTime at = 15.0 + 30.0 * rng.uniform();
    plan.crashes.push_back(
        {order[i], at, at + 60.0 + 60.0 * rng.uniform(), true});
  }
  for (std::uint32_t i = 0; i < n_disk; ++i) {
    plan.disk_faults.push_back(
        {order[n_crash + i],
         static_cast<std::uint32_t>(rng() % plan.disks_per_node),
         10.0 + 50.0 * rng.uniform()});
  }
  plan.attempt_failure_prob = 0.001;
  plan.container_launch_failure_prob = 0.0005;
  plan.fetch_failure_prob = 0.0002;
  return plan;
}

TEST(SkewTune, QueuedChunkYieldsUnitsItsRependedBlockLaunched) {
  // A straggler's unread units wait in a planned chunk while their rs(6,3)
  // block is unreadable. A crash re-pends the block, a holder rejoins and
  // the stock path launches the block's free units, the chunk's among
  // them; serving the chunk must then skip them, not take them again.
  constexpr std::uint32_t kNodes = 512;
  constexpr std::uint64_t kSeed = 9747919254309863993ull;
  auto cluster = bench::make_scale_cluster(kNodes);
  const auto workload = bench::make_scale_benchmark(kNodes, 20);
  const auto layout = workloads::make_layout(
      workload, InputScale::kSmall, cluster.num_nodes(), kDefaultBlockMiB, 3,
      kSeed, hdfs::StoragePolicy::rs(6, 3));
  const auto spec = workloads::to_job_spec(workload, InputScale::kSmall);
  Simulator sim;
  mr::SimParams params;
  params.seed = kSeed;
  const auto scheduler =
      workloads::make_scheduler(SchedulerKind::kSkewTune, kSeed);
  mr::JobDriver driver(sim, cluster, layout, spec, params, *scheduler);
  driver.install_faults(early_crash_plan(kNodes, kSeed));
  driver.start();
  EXPECT_NO_THROW({
    while (!driver.done() && sim.now() < 20000.0 && sim.step()) {
    }
  });
  ASSERT_TRUE(driver.done());
  const mr::JobResult& result = driver.result();
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  std::size_t credited = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      credited += task.num_bus;
    }
  }
  EXPECT_EQ(credited, layout.bus.size());
  EXPECT_EQ(driver.processed_bus(), layout.bus.size());
}

TEST(FlexMap, TaskSizesGrowOverTheJob) {
  auto cluster = cluster::presets::homogeneous6();
  flexmap::FlexMapScheduler scheduler;
  const auto result =
      workloads::run_job(cluster, tiny_wc(4096.0), InputScale::kSmall,
                         scheduler, RunConfig{});
  const auto& trace = scheduler.sizing_trace();
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front().size_bus, 1u);  // all mappers start at one BU
  std::uint32_t max_size = 0;
  for (const auto& point : trace) max_size = std::max(max_size, point.size_bus);
  EXPECT_GT(max_size, 4u);  // vertical scaling kicked in
  (void)result;
}

TEST(FlexMap, FasterNodesGetBiggerTasks) {
  auto cluster = straggler_cluster();
  flexmap::FlexMapScheduler scheduler;
  const auto result =
      workloads::run_job(cluster, tiny_wc(8192.0), InputScale::kSmall,
                         scheduler, RunConfig{});
  (void)result;
  double fast_avg = 0;
  double slow_avg = 0;
  std::size_t fast_n = 0;
  std::size_t slow_n = 0;
  for (const auto& point : scheduler.sizing_trace()) {
    if (point.phase_progress < 0.5) continue;  // after warm-up
    if (point.phase_progress > 0.9) continue;  // before end-game shrink
    if (point.node < 5) {
      fast_avg += point.size_bus;
      ++fast_n;
    } else {
      slow_avg += point.size_bus;
      ++slow_n;
    }
  }
  ASSERT_GT(fast_n, 0u);
  ASSERT_GT(slow_n, 0u);
  EXPECT_GT(fast_avg / static_cast<double>(fast_n),
            2.0 * slow_avg / static_cast<double>(slow_n));
}

TEST(FlexMap, NeverSpeculatesOrKills) {
  auto cluster = straggler_cluster();
  const auto result =
      workloads::run_job(cluster, tiny_wc(2048.0), InputScale::kSmall,
                         SchedulerKind::kFlexMap, RunConfig{});
  EXPECT_EQ(result.count(mr::TaskKind::kMap, mr::TaskStatus::kKilled), 0u);
  for (const auto& task : result.tasks) EXPECT_FALSE(task.speculative);
}

TEST(FlexMap, ReduceBiasSendsReducersToFastNodes) {
  auto cluster = straggler_cluster();
  const auto result =
      workloads::run_job(cluster, tiny_wc(4096.0, /*shuffle=*/1.0),
                         InputScale::kSmall, SchedulerKind::kFlexMap,
                         RunConfig{});
  MiB slow_input = 0;
  MiB fast_input = 0;
  for (const auto& task : result.tasks) {
    if (task.kind != mr::TaskKind::kReduce) continue;
    (task.node >= 5 ? slow_input : fast_input) += task.input_mib;
  }
  // Slow node holds 1/6 of slots but must get far less than 1/6 of the
  // reduce input under the c^2 bias (c ≈ 1/8 → quota ≈ 0).
  EXPECT_LT(slow_input, 0.05 * (slow_input + fast_input));
}

TEST(FlexMap, UniformReducePlacementWhenBiasDisabled) {
  auto cluster = straggler_cluster();
  const auto result =
      workloads::run_job(cluster, tiny_wc(4096.0, /*shuffle=*/1.0),
                         InputScale::kSmall,
                         SchedulerKind::kFlexMapNoReduceBias, RunConfig{});
  MiB slow_input = 0;
  MiB total = 0;
  for (const auto& task : result.tasks) {
    if (task.kind != mr::TaskKind::kReduce) continue;
    total += task.input_mib;
    if (task.node >= 5) slow_input += task.input_mib;
  }
  // Without bias the slow node picks up a real share of the reduce work.
  EXPECT_GT(slow_input, 0.03 * total);
}

TEST(FlexMap, AblationVariantsStillSatisfyInvariants) {
  for (const auto kind :
       {SchedulerKind::kFlexMapNoVertical, SchedulerKind::kFlexMapNoHorizontal,
        SchedulerKind::kFlexMapNoReduceBias}) {
    auto cluster = straggler_cluster();
    const auto result = workloads::run_job(
        cluster, tiny_wc(1024.0, 0.3), InputScale::kSmall, kind, RunConfig{});
    std::size_t credited = 0;
    for (const auto& task : result.tasks) {
      if (task.kind == mr::TaskKind::kMap && task.credited()) {
        credited += task.num_bus;
      }
    }
    EXPECT_EQ(credited, 128u) << workloads::scheduler_label(kind);
  }
}

TEST(FlexMap, NoVerticalKeepsTasksAtSpeedScaledUnit) {
  auto cluster = cluster::presets::homogeneous6();
  flexmap::FlexMapOptions options;
  options.sizing.vertical = false;
  flexmap::FlexMapScheduler scheduler(options);
  const auto result =
      workloads::run_job(cluster, tiny_wc(1024.0), InputScale::kSmall,
                         scheduler, RunConfig{});
  (void)result;
  for (const auto& point : scheduler.sizing_trace()) {
    EXPECT_LE(point.size_bus, 2u);  // unit stays 1; speed ratio ≈ 1
  }
}

TEST(FlexMap, ReducePlacerZeroCapacityNeverAccepts) {
  // The c² rule uses the shared strict-< bernoulli convention: a node
  // whose normalized capacity is 0 must decline every offer (the old
  // `uniform() <= p` form accepted when the RNG drew exactly 0).
  flexmap::BiasedReducePlacer placer(123);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_FALSE(placer.accept(0.0));
  }
}

TEST(FlexMap, ReducePlacerFullCapacityAlwaysAccepts) {
  flexmap::BiasedReducePlacer placer(123);
  for (int i = 0; i < 20000; ++i) {
    EXPECT_TRUE(placer.accept(1.0));
  }
}

TEST(FlexMap, ReducePlacerAcceptanceTracksCapacitySquared) {
  flexmap::BiasedReducePlacer placer(7);
  const double capacity = 0.5;
  const int draws = 40000;
  int accepted = 0;
  for (int i = 0; i < draws; ++i) {
    if (placer.accept(capacity)) ++accepted;
  }
  EXPECT_NEAR(static_cast<double>(accepted) / draws, capacity * capacity,
              0.01);
}

}  // namespace
}  // namespace flexmr
