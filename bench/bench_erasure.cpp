// Erasure-coded storage sweep: rs(k,m) striping vs 3x replication under
// node and disk faults, for all four comparison systems. Striping trades
// raw capacity (1.5x for rs(6,3) vs 3x for replication) against locality
// (every holder has only 1/k of a block's bytes) and fault cost (a lost
// part forces degraded reads that pay a decode toll, and the repair
// pipeline reads k surviving parts per rebuilt part — k x read
// amplification over re-replication's single copy).
#include <cstdio>

#include "bench/bench_common.hpp"
#include "cluster/presets.hpp"

namespace flexmr::bench {
namespace {

struct ErasureStats {
  OnlineStats jct;
  OnlineStats degraded_reads;
  OnlineStats decode_mib;
  OnlineStats parts_reconstructed;
  OnlineStats repair_read_mib;
  OnlineStats re_replicated;
  std::size_t aborted_runs = 0;
};

/// |kinds| x |points| x |seeds| runs on the 19-worker virtual cluster
/// (wide enough for rs(10,4)'s 14 distinct part holders).
std::vector<std::vector<ErasureStats>> erasure_sweep(
    const workloads::Benchmark& bench,
    const std::vector<workloads::SchedulerKind>& kinds,
    std::size_t num_points, const std::vector<std::uint64_t>& seeds,
    const std::function<void(workloads::RunConfig&, std::size_t)>& apply) {
  return fault_sweep<ErasureStats>(
      []() { return cluster::presets::virtual20(); }, bench, kinds,
      num_points, seeds, apply,
      [](ErasureStats& cell, const mr::JobResult& result) {
        cell.jct.add(result.jct());
        cell.degraded_reads.add(static_cast<double>(result.degraded_reads));
        cell.decode_mib.add(result.decode_mib);
        cell.parts_reconstructed.add(
            static_cast<double>(result.parts_reconstructed));
        cell.repair_read_mib.add(result.repair_read_mib);
        cell.re_replicated.add(
            count_events(result, faults::FaultEventType::kReReplicated));
      });
}

struct Policy {
  const char* label;
  hdfs::StoragePolicy storage;
};

/// Permanent node crash under each storage policy: replication reads the
/// surviving whole copies; striping loses one part per affected block and
/// every read until repair is degraded.
void run_policy_sweep(BenchArtifact& artifact,
                      const std::vector<workloads::SchedulerKind>& kinds,
                      const std::vector<std::uint64_t>& seeds) {
  print_header(
      "Storage policy under a permanent node crash",
      "rs(k,m) halves the raw-capacity overhead vs 3x replication but a "
      "crash leaves every affected stripe one part short: reads pay the "
      "decode toll until the repair pipeline (k x read amplification) "
      "catches up");

  const std::vector<Policy> policies = {
      {"rep3", {}},
      {"rs6.3", hdfs::StoragePolicy::rs(6, 3)},
      {"rs10.4", hdfs::StoragePolicy::rs(10, 4)},
  };
  auto bench = workloads::benchmark("WC");
  bench.small_input = 8192.0;
  const std::uint32_t replication = workloads::RunConfig{}.replication;
  const auto stats = erasure_sweep(
      bench, kinds, policies.size(), seeds,
      [&](workloads::RunConfig& config, std::size_t point) {
        config.storage = policies[point].storage;
        config.faults.crashes = {
            faults::NodeCrash{3, 25.0, std::nullopt, true}};
        // Mitigation churn under 1/k locality re-draws the per-attempt
        // coin more often; give faulted runs the same headroom the
        // erasure golden suite uses so SkewTune does not abort.
        config.faults.max_attempts = 8;
      });

  TextTable table({"System", "rep3", "rs(6,3)", "rs(10,4)", "rs6.3/rep3",
                   "degraded@6.3", "repairMiB@6.3"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string label = workloads::scheduler_label(kinds[k]);
    const double base = mean_or_zero(stats[k][0].jct);
    std::vector<std::string> row = {label};
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const auto& cell = stats[k][p];
      const double mean = mean_or_zero(cell.jct);
      row.push_back(mean > 0 ? TextTable::num(mean, 1) : "-");
      const std::string series =
          std::string("policy/") + label + "/" + policies[p].label;
      if (cell.jct.count() > 0) {
        artifact.add_metric(series, "jct", cell.jct);
        artifact.add_metric(series, "degraded_reads", cell.degraded_reads);
        artifact.add_metric(series, "decode_mib", cell.decode_mib);
        artifact.add_metric(series, "parts_reconstructed",
                            cell.parts_reconstructed);
        artifact.add_metric(series, "repair_read_mib", cell.repair_read_mib);
        artifact.add_metric(series, "re_replicated", cell.re_replicated);
        artifact.add_metric(series, "jct_vs_rep3",
                            base > 0 ? mean / base : 0.0);
      }
      artifact.add_metric(series, "storage_overhead",
                          policies[p].storage.overhead(replication));
      artifact.add_metric(series, "aborted_runs",
                          static_cast<double>(cell.aborted_runs));
    }
    const double striped = mean_or_zero(stats[k][1].jct);
    row.push_back(base > 0 && striped > 0 ? TextTable::num(striped / base, 2)
                                          : "-");
    row.push_back(
        TextTable::num(mean_or_zero(stats[k][1].degraded_reads), 0));
    row.push_back(
        TextTable::num(mean_or_zero(stats[k][1].repair_read_mib), 0));
    table.add_row(row);
  }
  std::printf("%s\n", table.str().c_str());
}

/// Per-disk fault domains under rs(6,3): one dead disk loses only that
/// disk's parts (1/disks_per_node of the node's holdings), and a slow
/// disk merely taxes locality for a window — both far gentler than the
/// whole-node crash above.
void run_disk_sweep(BenchArtifact& artifact,
                    const std::vector<workloads::SchedulerKind>& kinds,
                    const std::vector<std::uint64_t>& seeds) {
  print_header(
      "Per-disk fault domains, rs(6,3)",
      "a disk fault destroys one disk's parts on a live node (repair "
      "rebuilds them; rejoin cannot), a degraded window only slows reads; "
      "blast radius is 1/disks_per_node of a node crash");

  struct Scenario {
    const char* label;
  };
  const std::vector<Scenario> scenarios = {
      {"healthy"}, {"disk-fault"}, {"slow-disk"}};
  auto bench = workloads::benchmark("WC");
  bench.small_input = 8192.0;
  const auto stats = erasure_sweep(
      bench, kinds, scenarios.size(), seeds,
      [&](workloads::RunConfig& config, std::size_t point) {
        config.storage = hdfs::StoragePolicy::rs(6, 3);
        if (point == 1) {
          config.faults.disk_faults = {faults::DiskFault{2, 1, 10.0}};
        } else if (point == 2) {
          config.faults.disk_degradations = {
              faults::DiskDegradedWindow{2, 1, 10.0, 120.0, 0.25}};
        }
      });

  TextTable table({"System", "healthy", "disk-fault", "slow-disk",
                   "fault/healthy", "rebuilt"});
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    const std::string label = workloads::scheduler_label(kinds[k]);
    const double base = mean_or_zero(stats[k][0].jct);
    std::vector<std::string> row = {label};
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const auto& cell = stats[k][s];
      const double mean = mean_or_zero(cell.jct);
      row.push_back(mean > 0 ? TextTable::num(mean, 1) : "-");
      const std::string series =
          std::string("disk/") + label + "/" + scenarios[s].label;
      if (cell.jct.count() > 0) {
        artifact.add_metric(series, "jct", cell.jct);
        artifact.add_metric(series, "degraded_reads", cell.degraded_reads);
        artifact.add_metric(series, "decode_mib", cell.decode_mib);
        artifact.add_metric(series, "parts_reconstructed",
                            cell.parts_reconstructed);
        artifact.add_metric(series, "repair_read_mib", cell.repair_read_mib);
      }
      artifact.add_metric(series, "aborted_runs",
                          static_cast<double>(cell.aborted_runs));
    }
    const double faulted = mean_or_zero(stats[k][1].jct);
    row.push_back(base > 0 && faulted > 0 ? TextTable::num(faulted / base, 2)
                                          : "-");
    row.push_back(
        TextTable::num(mean_or_zero(stats[k][1].parts_reconstructed), 0));
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
      "erasure",
      "rs(k,m) striping vs 3x replication under node and disk faults");
  const auto seeds = bench::default_seeds();
  artifact.record_seeds(seeds);
  bench::run_policy_sweep(artifact, kinds, seeds);
  bench::run_disk_sweep(artifact, kinds, seeds);
  artifact.write();
  return 0;
}
