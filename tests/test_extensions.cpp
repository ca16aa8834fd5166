// Extension features: warm-started iterative jobs (§IV-G direction) and
// delay scheduling for the stock baseline.
#include <gtest/gtest.h>

#include "cluster/presets.hpp"
#include "flexmap/flexmap_scheduler.hpp"
#include "sched/stock.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

using workloads::InputScale;
using workloads::RunConfig;

workloads::Benchmark kmeans_small() {
  auto bench = workloads::benchmark("KM");
  bench.small_input = 2048.0;
  return bench;
}

TEST(WarmStart, SecondIterationSkipsTheRamp) {
  auto cluster = cluster::presets::heterogeneous6();
  flexmap::FlexMapOptions options;
  options.warm_start = true;
  flexmap::FlexMapScheduler scheduler(options);
  const auto results = workloads::run_iterations(
      cluster, kmeans_small(), InputScale::kSmall, scheduler, RunConfig{},
      3);
  ASSERT_EQ(results.size(), 3u);
  // Iteration 1 pays the ramp (many small tasks); later iterations start
  // at the learned sizes, so they launch noticeably fewer maps.
  EXPECT_LT(results[1].map_tasks_launched(),
            results[0].map_tasks_launched());
  EXPECT_LT(results[2].map_tasks_launched(),
            results[0].map_tasks_launched());
}

TEST(WarmStart, ImprovesIterationJct) {
  auto cluster = cluster::presets::heterogeneous6();
  flexmap::FlexMapOptions warm;
  warm.warm_start = true;
  flexmap::FlexMapScheduler warm_scheduler(warm);
  const auto warm_results = workloads::run_iterations(
      cluster, kmeans_small(), InputScale::kSmall, warm_scheduler,
      RunConfig{}, 3);

  flexmap::FlexMapScheduler cold_scheduler;  // warm_start off
  const auto cold_results = workloads::run_iterations(
      cluster, kmeans_small(), InputScale::kSmall, cold_scheduler,
      RunConfig{}, 3);

  // Same first iteration; warm wins from the second on (small margin on
  // this small job, so compare the sum of later iterations).
  const double warm_later = warm_results[1].jct() + warm_results[2].jct();
  const double cold_later = cold_results[1].jct() + cold_results[2].jct();
  EXPECT_LT(warm_later, cold_later * 1.02);
}

TEST(WarmStart, ColdSchedulerRelearnsEachIteration) {
  auto cluster = cluster::presets::heterogeneous6();
  flexmap::FlexMapScheduler scheduler;  // cold
  const auto results = workloads::run_iterations(
      cluster, kmeans_small(), InputScale::kSmall, scheduler, RunConfig{},
      2);
  // Without warm start both iterations ramp from 1 BU: similar task count.
  const double ratio =
      static_cast<double>(results[1].map_tasks_launched()) /
      static_cast<double>(results[0].map_tasks_launched());
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.3);
}

double mean_locality(const mr::JobResult& result) {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      sum += task.local_fraction;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

TEST(DelayScheduling, ImprovesLocality) {
  // Replication 1 makes locality scarce, so remote steals are common
  // without the wait.
  auto run = [](SimDuration wait) {
    auto cluster = cluster::presets::heterogeneous6();
    sched::StockHadoopScheduler scheduler(
        sched::StockOptions{.speculation = false, .locality_wait_s = wait});
    auto bench = workloads::benchmark("WC");
    bench.small_input = 2048.0;
    RunConfig config;
    config.replication = 1;
    return workloads::run_job(cluster, bench, InputScale::kSmall,
                              scheduler, config);
  };
  const auto eager = run(0.0);
  const auto waiting = run(10.0);
  EXPECT_GT(mean_locality(waiting), mean_locality(eager));
  // And every BU still processed exactly once.
  std::size_t credited = 0;
  for (const auto& task : waiting.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      credited += task.num_bus;
    }
  }
  EXPECT_EQ(credited, 256u);
}

TEST(DelayScheduling, ZeroWaitMatchesDefaultBehavior) {
  auto cluster = cluster::presets::homogeneous6();
  sched::StockHadoopScheduler with_zero(
      sched::StockOptions{.speculation = false, .locality_wait_s = 0.0});
  auto bench = workloads::benchmark("WC");
  bench.small_input = 1024.0;
  const auto a = workloads::run_job(cluster, bench, InputScale::kSmall,
                                    with_zero, RunConfig{});
  auto cluster2 = cluster::presets::homogeneous6();
  const auto b = workloads::run_job(cluster2, bench, InputScale::kSmall,
                                    workloads::SchedulerKind::kHadoopNoSpec,
                                    RunConfig{});
  EXPECT_DOUBLE_EQ(a.jct(), b.jct());
}

}  // namespace
}  // namespace flexmr
