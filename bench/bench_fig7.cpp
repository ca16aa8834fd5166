// Reproduces Fig. 7: how FlexMap's task sizes and productivities evolve
// over the map phase of histogram-ratings, for the fastest and slowest
// node, on (a,b) the physical and (c,d) the virtual cluster.
//
// Paper: both nodes start at 1 BU; the fast node grows quickly (to 32 BUs
// = 256 MB physical, 64 BUs virtual) and reaches high productivity within
// a few waves; the slow node stays small (8 BUs physical, 2 BUs virtual)
// and never reaches high productivity before the phase ends.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "cluster/presets.hpp"
#include "flexmap/export.hpp"
#include "flexmap/flexmap_scheduler.hpp"

namespace flexmr::bench {
namespace {

void trace_cluster(const char* title, cluster::Cluster cluster,
                   const char* claim, BenchArtifact& artifact,
                   const std::string& series) {
  print_header(title, claim);

  flexmap::FlexMapScheduler scheduler;
  workloads::RunConfig config;
  config.params.seed = 99;
  const auto result = workloads::run_job(
      cluster, workloads::benchmark("HR"), workloads::InputScale::kSmall,
      scheduler, config);

  // Identify the fastest and slowest node with a ground-truth probe (the
  // paper used "a simple performance probe").
  NodeId fast = 0;
  NodeId slow = 0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    if (cluster.machine(n).effective_ips() >
        cluster.machine(fast).effective_ips()) {
      fast = n;
    }
    if (cluster.machine(n).effective_ips() <
        cluster.machine(slow).effective_ips()) {
      slow = n;
    }
  }

  TextTable table({"Map progress", "node", "class", "task size (BUs)",
                   "task size (MB)", "productivity"});
  // Peak sizes correspond to the paper's "final task size": our runs also
  // shrink tasks in the end-game (an engineering addition, see DESIGN.md),
  // so the last launched task is deliberately small.
  std::uint32_t fast_peak = 0;
  std::uint32_t slow_peak = 0;
  for (const auto& point : scheduler.sizing_trace()) {
    const bool is_fast = point.node == fast;
    const bool is_slow = point.node == slow;
    if (!is_fast && !is_slow) continue;
    if (is_fast) fast_peak = std::max(fast_peak, point.size_bus);
    if (is_slow) slow_peak = std::max(slow_peak, point.size_bus);
    table.add_row({TextTable::num(point.phase_progress * 100, 0) + "%",
                   std::to_string(point.node), is_fast ? "fast" : "slow",
                   std::to_string(point.size_bus),
                   TextTable::num(point.size_mib, 0),
                   TextTable::num(point.productivity, 2)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("peak sizes: fast node %u BUs (%u MB), slow node %u BUs "
              "(%u MB); JCT %.1fs, efficiency %.2f\n\n",
              fast_peak, fast_peak * 8, slow_peak, slow_peak * 8,
              result.jct(), result.efficiency());

  artifact.record_seeds({config.params.seed});
  artifact.add_metric(series, "jct", result.jct());
  artifact.add_metric(series, "efficiency", result.efficiency());
  artifact.add_metric(series, "fast_peak_bus",
                      static_cast<double>(fast_peak));
  artifact.add_metric(series, "slow_peak_bus",
                      static_cast<double>(slow_peak));
  // The full sizing/speed trace (schema flexmr.flexmap_trace.v1) rides
  // along under "extra" so plots can be regenerated without re-running.
  artifact.attach(series, flexmap::flexmap_trace_json(scheduler));
}

}  // namespace
}  // namespace flexmr::bench

int main() {
  using namespace flexmr;
  bench::BenchArtifact artifact(
      "fig7", "FlexMap task size & productivity evolution over map phase");
  bench::trace_cluster(
      "Fig. 7(a,b): task size & productivity vs map progress, physical",
      cluster::presets::physical12(),
      "fast node grows to tens of BUs at high productivity; slow node "
      "stays below ~8 BUs and low productivity", artifact, "physical");
  bench::trace_cluster(
      "Fig. 7(c,d): task size & productivity vs map progress, virtual",
      cluster::presets::virtual20(),
      "discrepancy is larger: slow node ends at ~2 BUs, fast node far "
      "above it", artifact, "virtual");
  artifact.write();
  return 0;
}
