// Scenario: a worker node dies mid-job.
//
// Runs the same wordcount twice on a small cluster — once undisturbed,
// once with node 2 failing during the map phase — and shows the recovery:
// the killed containers, the re-executed lost outputs, the utilization
// shift onto the survivors, and an ASCII Gantt chart of both runs.
#include <cstdio>

#include "cluster/presets.hpp"
#include "common/table.hpp"
#include "mr/analysis.hpp"
#include "mr/trace.hpp"
#include "workloads/experiment.hpp"

namespace {

void report(const char* label, const flexmr::mr::JobResult& result,
            const flexmr::cluster::Cluster& cluster) {
  using namespace flexmr;
  std::printf("\n=== %s ===\n", label);
  std::printf("JCT %.1fs | map phase %.1fs | killed %zu | lost-output %zu "
              "| wasted %.1f slot-s\n",
              result.jct(), result.map_phase_runtime(),
              result.count(mr::TaskKind::kMap, mr::TaskStatus::kKilled),
              result.count(mr::TaskKind::kMap,
                           mr::TaskStatus::kLostOutput),
              result.wasted_slot_time());

  TextTable table({"node", "map busy (s)", "reduce busy (s)",
                   "wasted (s)", "input processed (MiB)"});
  for (const auto& node : mr::node_utilization(result, cluster)) {
    table.add_row({std::to_string(node.node),
                   TextTable::num(node.map_busy, 1),
                   TextTable::num(node.reduce_busy, 1),
                   TextTable::num(node.wasted, 1),
                   TextTable::num(node.map_input, 0)});
  }
  std::printf("%s\n%s", table.str().c_str(),
              mr::gantt(result, cluster, 90).c_str());
}

}  // namespace

int main() {
  using namespace flexmr;

  auto bench = workloads::benchmark("WC");
  bench.small_input = 2048.0;
  bench.shuffle_ratio = 0.5;

  auto cluster = cluster::presets::homogeneous6();
  workloads::RunConfig config;
  config.params.seed = 4;
  const auto healthy = workloads::run_job(
      cluster, bench, workloads::InputScale::kSmall,
      workloads::SchedulerKind::kFlexMap, config);
  report("healthy run (FlexMap, 6 nodes)", healthy, cluster);

  auto cluster2 = cluster::presets::homogeneous6();
  config.faults.crashes.push_back(
      faults::NodeCrash{2, 12.0, std::nullopt, /*silent=*/false});
  const auto failed = workloads::run_job(
      cluster2, bench, workloads::InputScale::kSmall,
      workloads::SchedulerKind::kFlexMap, config);
  report("node 2 fails at t=12s", failed, cluster2);

  std::printf("\nRecovery cost: +%.1fs JCT (%.0f%%). The node 2 lanes go\n"
              "silent after the failure; its completed map outputs are\n"
              "re-executed on the survivors ('x' marks discarded work).\n",
              failed.jct() - healthy.jct(),
              (failed.jct() / healthy.jct() - 1.0) * 100.0);
  return 0;
}
