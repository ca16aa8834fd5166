// Edge cases: degenerate inputs, degenerate clusters, odd geometry.
#include <gtest/gtest.h>

#include <string>

#include "cluster/presets.hpp"
#include "common/error.hpp"
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

const SchedulerKind kAll[] = {SchedulerKind::kHadoop,
                              SchedulerKind::kHadoopNoSpec,
                              SchedulerKind::kSkewTune,
                              SchedulerKind::kFlexMap};

TEST(EdgeCases, SingleBuJob) {
  for (const auto kind : kAll) {
    auto cluster = cluster::presets::homogeneous6();
    const auto result = workloads::run_job(cluster, wc(8.0),
                                           InputScale::kSmall, kind,
                                           RunConfig{});
    EXPECT_EQ(result.map_tasks_launched(), 1u)
        << workloads::scheduler_label(kind);
    EXPECT_GT(result.jct(), 0.0);
  }
}

TEST(EdgeCases, SubBuJob) {
  // 3 MiB: less than one block unit.
  for (const auto kind : kAll) {
    auto cluster = cluster::presets::homogeneous6();
    const auto result = workloads::run_job(cluster, wc(3.0),
                                           InputScale::kSmall, kind,
                                           RunConfig{});
    MiB processed = 0;
    for (const auto& task : result.tasks) {
      if (task.kind == mr::TaskKind::kMap && task.credited()) {
        processed += task.input_mib;
      }
    }
    EXPECT_NEAR(processed, 3.0, 1e-9) << workloads::scheduler_label(kind);
  }
}

TEST(EdgeCases, SingleNodeCluster) {
  for (const auto kind : kAll) {
    auto cluster =
        cluster::ClusterBuilder()
            .add(cluster::MachineSpec{.model = "solo", .base_ips = 10.0,
                                      .slots = 2, .nic_bandwidth = 1192.0,
                                      .memory_gb = 8.0},
                 1)
            .build();
    const auto result = workloads::run_job(cluster, wc(256.0),
                                           InputScale::kSmall, kind,
                                           RunConfig{});
    std::size_t credited = 0;
    for (const auto& task : result.tasks) {
      if (task.kind == mr::TaskKind::kMap && task.credited()) {
        credited += task.num_bus;
      }
      EXPECT_EQ(task.node, 0u);
    }
    EXPECT_EQ(credited, 32u) << workloads::scheduler_label(kind);
  }
}

TEST(EdgeCases, SingleSlotCluster) {
  auto cluster =
      cluster::ClusterBuilder()
          .add(cluster::MachineSpec{.model = "one-slot", .base_ips = 10.0,
                                    .slots = 1, .nic_bandwidth = 1192.0,
                                    .memory_gb = 8.0},
               1)
          .build();
  const auto result = workloads::run_job(cluster, wc(128.0, 0.5),
                                         InputScale::kSmall,
                                         SchedulerKind::kFlexMap,
                                         RunConfig{});
  // Strictly serial execution: efficiency must be ~1 by construction.
  EXPECT_GT(result.efficiency(), 0.98);
}

TEST(EdgeCases, BlockSizeNotMultipleOfBuRejected) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.block_size = 60.0;  // not a multiple of 8 MiB
  try {
    workloads::run_job(cluster, wc(600.0), InputScale::kSmall,
                       SchedulerKind::kHadoopNoSpec, config);
    FAIL() << "expected ConfigError for indivisible block size";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("does not divide"),
              std::string::npos)
        << e.what();
  }
}

TEST(EdgeCases, ReplicationOne) {
  for (const auto kind : kAll) {
    auto cluster = cluster::presets::heterogeneous6();
    RunConfig config;
    config.replication = 1;
    const auto result = workloads::run_job(cluster, wc(512.0),
                                           InputScale::kSmall, kind,
                                           config);
    std::size_t credited = 0;
    for (const auto& task : result.tasks) {
      if (task.kind == mr::TaskKind::kMap && task.credited()) {
        credited += task.num_bus;
      }
    }
    EXPECT_EQ(credited, 64u) << workloads::scheduler_label(kind);
  }
}

TEST(EdgeCases, FullReplicationEveryNodeHoldsEverything) {
  auto cluster = cluster::presets::tiny3();
  RunConfig config;
  config.replication = 3;
  const auto result = workloads::run_job(cluster, wc(256.0, 0.0),
                                         InputScale::kSmall,
                                         SchedulerKind::kFlexMap, config);
  // With full replication every map task is node-local.
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      EXPECT_DOUBLE_EQ(task.local_fraction, 1.0);
    }
  }
}

TEST(EdgeCases, ManyMoreReducersThanSlots) {
  auto cluster = cluster::presets::homogeneous6();
  Simulator sim;
  auto bench = wc(512.0, 1.0);
  const auto layout = workloads::make_layout(
      bench, InputScale::kSmall, cluster.num_nodes(), 64.0, 3, 1);
  auto spec = workloads::to_job_spec(bench, InputScale::kSmall, 100);
  const auto scheduler =
      workloads::make_scheduler(SchedulerKind::kHadoopNoSpec);
  recover::RecoveryRunner runner(sim, cluster, layout, spec, mr::SimParams{},
                                 *scheduler, faults::FaultPlan{});
  const auto result = runner.run();
  // 100 reducers on 24 slots: multiple reduce waves, all complete.
  EXPECT_EQ(result.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted),
            100u);
}

TEST(EdgeCases, EmptyJobRejected) {
  auto cluster = cluster::presets::homogeneous6();
  hdfs::FileLayout empty;
  auto spec = workloads::to_job_spec(workloads::benchmark("WC"),
                                     InputScale::kSmall);
  const auto scheduler =
      workloads::make_scheduler(SchedulerKind::kHadoopNoSpec);
  Simulator sim;
  EXPECT_THROW(mr::JobDriver(sim, cluster, empty, spec, mr::SimParams{},
                             *scheduler),
               InvariantError);
}

}  // namespace
}  // namespace flexmr
