// Google-benchmark microbenchmarks for the simulator's hot paths: the
// event queue, the block-location index (LTB's inner loop), speed
// monitoring, and a whole end-to-end simulation as a macro number.
#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"
#include "bench/scale_grid.hpp"
#include "cluster/presets.hpp"
#include "flexmap/speed_monitor.hpp"
#include "hdfs/block_index.hpp"
#include "hdfs/namenode.hpp"
#include "simcore/simulator.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

void BM_EventQueueScheduleFire(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<SimTime>(i % 97), [&fired]() { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_EventCancellation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    std::vector<EventId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(sim.schedule_at(1.0, []() {}));
    }
    for (std::size_t i = 0; i < n; i += 2) sim.cancel(ids[i]);
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                          state.iterations());
}
BENCHMARK(BM_EventCancellation)->Arg(1 << 14);

void BM_BlockIndexTakeLocal(benchmark::State& state) {
  // 64 GiB at 8 MB BUs, index built and drained: on 39 nodes with 3-way
  // replication the fig8-scale index, on 512 nodes with rs(6,3) the
  // storage of perfbench's faults workload (Args: nodes, erasure).
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const hdfs::StoragePolicy storage = state.range(1) != 0
                                          ? hdfs::StoragePolicy::rs(6, 3)
                                          : hdfs::StoragePolicy{};
  Rng rng(7);
  hdfs::NameNode nn(nodes, hdfs::PlacementPolicy::kRandom, rng);
  const auto layout =
      nn.create_file(gib_to_mib(64), 64.0, 3, kBlockUnitMiB, storage);
  for (auto _ : state) {
    hdfs::BlockLocationIndex index(layout, nodes);
    NodeId node = 0;
    while (index.unprocessed() > 0) {
      auto taken = index.take_local(node, 16);
      if (taken.empty()) taken = index.take_remote(node, 16);
      benchmark::DoNotOptimize(taken.size());
      node = (node + 1) % nodes;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(layout.bus.size()) *
                          state.iterations());
}
BENCHMARK(BM_BlockIndexTakeLocal)->Args({39, 0})->Args({512, 1});

void BM_MakeLayout(benchmark::State& state) {
  // bench_scale's input at 10 tasks/node: one 64 MB block per task, 3-way
  // replication, lognormal record skew. Placement costs O(replicas) per
  // block, so the time per block (items/s) should not fall as the cluster
  // grows.
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  const auto bench = bench::make_scale_benchmark(nodes, 10);
  std::size_t blocks = 0;
  for (auto _ : state) {
    const auto layout = workloads::make_layout(
        bench, workloads::InputScale::kSmall, nodes, kDefaultBlockMiB, 3, 7);
    blocks = layout.blocks.size();
    benchmark::DoNotOptimize(layout.blocks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(blocks) *
                          state.iterations());
}
BENCHMARK(BM_MakeLayout)->Arg(600)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_SpeedMonitorUpdateQuery(benchmark::State& state) {
  flexmap::SpeedMonitor monitor(40);
  Rng rng(3);
  for (auto _ : state) {
    for (NodeId n = 0; n < 40; ++n) {
      monitor.update(n, rng.uniform(1.0, 20.0));
    }
    benchmark::DoNotOptimize(monitor.slowest());
    benchmark::DoNotOptimize(monitor.fastest());
    for (NodeId n = 0; n < 40; ++n) {
      benchmark::DoNotOptimize(monitor.relative_speed(n));
    }
  }
}
BENCHMARK(BM_SpeedMonitorUpdateQuery);

void BM_FullSimulation(benchmark::State& state) {
  const auto kind = static_cast<workloads::SchedulerKind>(state.range(0));
  for (auto _ : state) {
    auto cluster = cluster::presets::physical12();
    workloads::RunConfig config;
    config.params.seed = 11;
    const auto result =
        workloads::run_job(cluster, workloads::benchmark("WC"),
                           workloads::InputScale::kSmall, kind, config);
    benchmark::DoNotOptimize(result.jct());
  }
}
BENCHMARK(BM_FullSimulation)
    ->Arg(static_cast<int>(workloads::SchedulerKind::kHadoop))
    ->Arg(static_cast<int>(workloads::SchedulerKind::kFlexMap))
    ->Unit(benchmark::kMillisecond);

// Console output as usual, plus every run captured into the shared
// BENCH_micro.json artifact (adjusted real/CPU time per benchmark name).
class ArtifactReporter : public benchmark::ConsoleReporter {
 public:
  explicit ArtifactReporter(bench::BenchArtifact& artifact)
      : artifact_(artifact) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const auto& run : reports) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      artifact_.add_metric(name, "real_time", run.GetAdjustedRealTime());
      artifact_.add_metric(name, "cpu_time", run.GetAdjustedCPUTime());
      artifact_.add_metric(name, "iterations",
                           static_cast<double>(run.iterations));
    }
  }

 private:
  bench::BenchArtifact& artifact_;
};

}  // namespace
}  // namespace flexmr

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  flexmr::bench::BenchArtifact artifact(
      "micro", "google-benchmark microbenchmarks of simulator hot paths");
  flexmr::ArtifactReporter reporter(artifact);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  artifact.write();
  return 0;
}
