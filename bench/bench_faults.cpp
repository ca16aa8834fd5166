// Fault-tolerance sweep: JCT degradation under increasing transient
// attempt-failure rates, plus recovery cost of a mid-phase node crash,
// for all four comparison systems. Not a paper figure — the paper runs on
// healthy clusters — but the fault model (heartbeat-expiry detection,
// Hadoop retry/blacklist defaults) makes the robustness cost measurable:
// every retried attempt is wasted slot time, and elastic tasks lose more
// work per failure than fixed-size ones because a failed container
// forfeits all the BUs it bundled.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "cluster/presets.hpp"

namespace flexmr::bench {
namespace {

struct FaultPointStats {
  OnlineStats jct;
  OnlineStats wasted;
  OnlineStats failed_attempts;
  std::size_t aborted_runs = 0;
};

void fold_run(FaultPointStats& cell, const mr::JobResult& result) {
  cell.jct.add(result.jct());
  cell.wasted.add(result.wasted_slot_time());
  cell.failed_attempts.add(static_cast<double>(
      result.count(mr::TaskKind::kMap, mr::TaskStatus::kFailed) +
      result.count(mr::TaskKind::kReduce, mr::TaskStatus::kFailed)));
}

void run_rate_sweep(BenchArtifact& artifact,
                    const std::vector<workloads::SchedulerKind>& kinds,
                    const std::vector<std::uint64_t>& seeds) {
  const std::vector<double> rates = {0.0, 0.05, 0.15, 0.3};
  print_header(
      "Fault sweep: JCT degradation vs transient attempt-failure rate",
      "every system degrades monotonically; FlexMap pays more per failure "
      "(bigger tasks lose more work) but its rate-proportional sizing "
      "keeps the tail bounded; no system aborts below 30% failure rate");

  auto bench = workloads::benchmark("WC");
  bench.small_input = 4096.0;
  const auto stats = fault_sweep<FaultPointStats>(
      []() { return cluster::presets::physical12(); }, bench, kinds,
      rates.size(), seeds,
      [&](workloads::RunConfig& config, std::size_t r) {
        config.faults.attempt_failure_prob = rates[r];
      },
      fold_run);

  TextTable table({"System", "p=0", "p=0.05", "p=0.15", "p=0.30",
                   "x0.30/x0", "aborts"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string label = workloads::scheduler_label(kinds[k]);
    const double base = mean_or_zero(stats[k][0].jct);
    std::vector<std::string> row = {label};
    std::size_t aborted = 0;
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const double mean = mean_or_zero(stats[k][r].jct);
      row.push_back(mean > 0 ? TextTable::num(mean, 1) : "-");
      aborted += stats[k][r].aborted_runs;
      const std::string series =
          "rate/" + label + "/p" + TextTable::num(rates[r], 2);
      if (stats[k][r].jct.count() > 0) {
        artifact.add_metric(series, "jct", stats[k][r].jct);
        artifact.add_metric(series, "wasted_slot_time", stats[k][r].wasted);
        artifact.add_metric(series, "failed_attempts",
                            stats[k][r].failed_attempts);
        artifact.add_metric(series, "jct_vs_faultfree",
                            base > 0 ? mean / base : 0.0);
      }
      artifact.add_metric(series, "aborted_runs",
                          static_cast<double>(stats[k][r].aborted_runs));
    }
    const double worst = mean_or_zero(stats[k].back().jct);
    row.push_back(base > 0 && worst > 0 ? TextTable::num(worst / base, 2)
                                        : "-");
    row.push_back(TextTable::num(static_cast<double>(aborted), 0));
    table.add_row(row);
  }
  std::printf("%s\n", table.str().c_str());
}

void run_crash_recovery(BenchArtifact& artifact,
                        const std::vector<workloads::SchedulerKind>& kinds,
                        const std::vector<std::uint64_t>& seeds) {
  print_header(
      "Crash recovery: silent mid-map-phase node loss (30 s detection)",
      "the undetected window adds ~a liveness timeout of wasted work on "
      "top of the re-execution cost; a rejoining node claws some back");

  // Long enough (~2 min healthy) that map work is still pending when the
  // node returns; on the 4 GiB sweep input the re-queued BUs would already
  // be re-dispatched by detection time and the rejoin would change nothing.
  auto bench = workloads::benchmark("WC");
  bench.small_input = 16384.0;
  struct Scenario {
    const char* label;
    std::optional<SimTime> rejoin;
  };
  // Rejoin at 60 s: shortly after the ~55 s heartbeat-expiry detection of
  // the 25 s crash, while re-executed work is still in flight.
  const std::vector<Scenario> scenarios = {{"healthy", std::nullopt},
                                           {"crash", std::nullopt},
                                           {"crash+rejoin", 60.0}};
  const auto stats = fault_sweep<FaultPointStats>(
      []() { return cluster::presets::physical12(); }, bench, kinds,
      scenarios.size(), seeds,
      [&](workloads::RunConfig& config, std::size_t s) {
        const auto& scenario = scenarios[s];
        if (std::string(scenario.label) == "healthy") return;
        config.faults.crashes = {
            faults::NodeCrash{3, 25.0, scenario.rejoin, true}};
      },
      fold_run);

  TextTable table({"System", "healthy", "crash", "crash+rejoin",
                   "crash/healthy"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string label = workloads::scheduler_label(kinds[k]);
    const double base = mean_or_zero(stats[k][0].jct);
    std::vector<std::string> row = {label};
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const double mean = mean_or_zero(stats[k][s].jct);
      row.push_back(mean > 0 ? TextTable::num(mean, 1) : "-");
      const std::string series =
          std::string("crash/") + label + "/" + scenarios[s].label;
      if (stats[k][s].jct.count() > 0) {
        artifact.add_metric(series, "jct", stats[k][s].jct);
        artifact.add_metric(series, "wasted_slot_time", stats[k][s].wasted);
      }
    }
    const double crashed = mean_or_zero(stats[k][1].jct);
    row.push_back(base > 0 && crashed > 0
                      ? TextTable::num(crashed / base, 2)
                      : "-");
    table.add_row(row);
  }
  std::printf("%s\n", table.str().c_str());
}

}  // namespace
}  // namespace flexmr::bench

int main() {
  using namespace flexmr;
  const std::vector<workloads::SchedulerKind> kinds = {
      workloads::SchedulerKind::kHadoop,
      workloads::SchedulerKind::kHadoopNoSpec,
      workloads::SchedulerKind::kSkewTune,
      workloads::SchedulerKind::kFlexMap,
  };
  bench::BenchArtifact artifact(
      "faults", "JCT under transient failures and node crashes");
  const auto seeds = bench::default_seeds();
  artifact.record_seeds(seeds);
  bench::run_rate_sweep(artifact, kinds, seeds);
  bench::run_crash_recovery(artifact, kinds, seeds);
  artifact.write();
  return 0;
}
