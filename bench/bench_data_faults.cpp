// Data-plane fault sweep: shuffle fetch-failure rates and HDFS replica
// loss with and without NameNode re-replication, for all four comparison
// systems. Complements bench_faults (control-plane failures): here the
// failures hit the data itself — reducers lose fetches and force map
// re-execution past the report threshold, and a dead node takes a third
// of the replicas of its blocks with it until the NameNode copies them
// back onto the survivors.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "cluster/presets.hpp"

namespace flexmr::bench {
namespace {

struct DataFaultStats {
  OnlineStats jct;
  OnlineStats wasted;
  OnlineStats fetch_failures;
  OnlineStats maps_rerun;
  OnlineStats re_replicated;
  std::size_t aborted_runs = 0;
};

/// |kinds| × |points| × |seeds| runs on the 12-node physical cluster.
std::vector<std::vector<DataFaultStats>> data_fault_sweep(
    const workloads::Benchmark& bench,
    const std::vector<workloads::SchedulerKind>& kinds,
    std::size_t num_points, const std::vector<std::uint64_t>& seeds,
    const std::function<void(workloads::RunConfig&, std::size_t)>& apply) {
  return fault_sweep<DataFaultStats>(
      []() { return cluster::presets::physical12(); }, bench, kinds,
      num_points, seeds, apply,
      [](DataFaultStats& cell, const mr::JobResult& result) {
        cell.jct.add(result.jct());
        cell.wasted.add(result.wasted_slot_time());
        cell.fetch_failures.add(
            count_events(result, faults::FaultEventType::kFetchFailure));
        cell.maps_rerun.add(
            count_events(result, faults::FaultEventType::kMapOutputLost));
        cell.re_replicated.add(
            count_events(result, faults::FaultEventType::kReReplicated));
      });
}

void run_fetch_failure_sweep(
    BenchArtifact& artifact,
    const std::vector<workloads::SchedulerKind>& kinds,
    const std::vector<std::uint64_t>& seeds) {
  const std::vector<double> rates = {0.0, 0.02, 0.05, 0.1};
  print_header(
      "Fetch-failure sweep: JCT vs per-fetch shuffle failure rate",
      "every failed fetch costs a backoff; past the report threshold the "
      "source map is re-executed, re-opening the map phase — the cost is "
      "similar across systems because the shuffle volume is");

  auto bench = workloads::benchmark("WC");
  bench.small_input = 4096.0;
  bench.shuffle_ratio = 1.0;
  const auto stats = data_fault_sweep(
      bench, kinds, rates.size(), seeds,
      [&](workloads::RunConfig& config, std::size_t point) {
        config.faults.fetch_failure_prob = rates[point];
      });

  TextTable table({"System", "p=0", "p=0.02", "p=0.05", "p=0.10",
                   "x0.10/x0", "reruns@0.10"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string label = workloads::scheduler_label(kinds[k]);
    const double base = mean_or_zero(stats[k][0].jct);
    std::vector<std::string> row = {label};
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const double mean = mean_or_zero(stats[k][r].jct);
      row.push_back(mean > 0 ? TextTable::num(mean, 1) : "-");
      const std::string series =
          "fetch/" + label + "/p" + TextTable::num(rates[r], 2);
      if (stats[k][r].jct.count() > 0) {
        artifact.add_metric(series, "jct", stats[k][r].jct);
        artifact.add_metric(series, "wasted_slot_time", stats[k][r].wasted);
        artifact.add_metric(series, "fetch_failures",
                            stats[k][r].fetch_failures);
        artifact.add_metric(series, "maps_rerun", stats[k][r].maps_rerun);
        artifact.add_metric(series, "jct_vs_faultfree",
                            base > 0 ? mean / base : 0.0);
      }
      artifact.add_metric(series, "aborted_runs",
                          static_cast<double>(stats[k][r].aborted_runs));
    }
    const double worst = mean_or_zero(stats[k].back().jct);
    row.push_back(base > 0 && worst > 0 ? TextTable::num(worst / base, 2)
                                        : "-");
    row.push_back(TextTable::num(mean_or_zero(stats[k].back().maps_rerun),
                                 1));
    table.add_row(row);
  }
  std::printf("%s\n", table.str().c_str());
}

void run_replica_loss(BenchArtifact& artifact,
                      const std::vector<workloads::SchedulerKind>& kinds,
                      const std::vector<std::uint64_t>& seeds) {
  print_header(
      "Replica loss: permanent node crash with vs without re-replication",
      "with re-replication the NameNode restores the replication factor "
      "on the survivors, so later dispatches regain locality; without it "
      "the job still finishes on the remaining replicas but every read of "
      "an affected block is remote");

  // Long enough that plenty of map work is still pending when the crash
  // is detected, so restored locality has dispatches left to help.
  auto bench = workloads::benchmark("WC");
  bench.small_input = 16384.0;
  struct Scenario {
    const char* label;
    bool crash;
    bool re_replicate;
  };
  const std::vector<Scenario> scenarios = {
      {"healthy", false, true},
      {"crash+rerepl", true, true},
      {"crash-norerepl", true, false},
  };
  const auto stats = data_fault_sweep(
      bench, kinds, scenarios.size(), seeds,
      [&](workloads::RunConfig& config, std::size_t point) {
        const auto& scenario = scenarios[point];
        if (!scenario.crash) return;
        config.faults.crashes = {
            faults::NodeCrash{3, 25.0, std::nullopt, true}};
        config.faults.re_replication = scenario.re_replicate;
      });

  TextTable table({"System", "healthy", "crash+rerepl", "crash-norerepl",
                   "rerepl/healthy", "copies"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string label = workloads::scheduler_label(kinds[k]);
    const double base = mean_or_zero(stats[k][0].jct);
    std::vector<std::string> row = {label};
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const double mean = mean_or_zero(stats[k][s].jct);
      row.push_back(mean > 0 ? TextTable::num(mean, 1) : "-");
      const std::string series =
          std::string("replica/") + label + "/" + scenarios[s].label;
      if (stats[k][s].jct.count() > 0) {
        artifact.add_metric(series, "jct", stats[k][s].jct);
        artifact.add_metric(series, "wasted_slot_time", stats[k][s].wasted);
        artifact.add_metric(series, "re_replicated",
                            stats[k][s].re_replicated);
      }
      artifact.add_metric(series, "aborted_runs",
                          static_cast<double>(stats[k][s].aborted_runs));
    }
    const double rerepl = mean_or_zero(stats[k][1].jct);
    row.push_back(base > 0 && rerepl > 0 ? TextTable::num(rerepl / base, 2)
                                         : "-");
    row.push_back(TextTable::num(mean_or_zero(stats[k][1].re_replicated),
                                 0));
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
      "data_faults",
      "JCT under shuffle fetch failures and HDFS replica loss");
  const auto seeds = bench::default_seeds();
  artifact.record_seeds(seeds);
  bench::run_fetch_failure_sweep(artifact, kinds, seeds);
  bench::run_replica_loss(artifact, kinds, seeds);
  artifact.write();
  return 0;
}
