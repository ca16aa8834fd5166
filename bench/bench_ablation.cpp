// Ablation study (beyond the paper — the paper motivates each FlexMap
// mechanism but never isolates them):
//   * vertical scaling only  (horizontal disabled),
//   * horizontal scaling only (vertical disabled: tasks stay at 1-BU unit
//     scaled by speed),
//   * no reduce-placement bias,
//   * BU granularity 4/8/16/32 MB.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "cluster/presets.hpp"
#include "flexmap/oracle.hpp"
#include "recover/runner.hpp"

namespace flexmr::bench {
namespace {

void mechanism_ablation(const char* title,
                        const std::function<cluster::Cluster()>& make,
                        const char* code, BenchArtifact& artifact,
                        const std::string& prefix) {
  print_header(title, "each mechanism contributes; full FlexMap is best "
                      "or tied on map-heavy workloads");
  const std::vector<SweepPoint> points = {
      {workloads::SchedulerKind::kHadoopNoSpec, kDefaultBlockMiB, "Hadoop"},
      {workloads::SchedulerKind::kFlexMap, kDefaultBlockMiB, "FlexMap"},
      {workloads::SchedulerKind::kFlexMapNoVertical, kDefaultBlockMiB,
       "no vertical"},
      {workloads::SchedulerKind::kFlexMapNoHorizontal, kDefaultBlockMiB,
       "no horizontal"},
      {workloads::SchedulerKind::kFlexMapNoReduceBias, kDefaultBlockMiB,
       "no reduce bias"},
  };
  const auto seeds = default_seeds(5);
  artifact.record_seeds(seeds);
  TextTable table({"Variant", "JCT (s)", "vs Hadoop", "Efficiency",
                   "Productivity"});
  const auto results = sweep(make, workloads::benchmark(code),
                             workloads::InputScale::kSmall, points, seeds);
  artifact.add_sweep(prefix, results);
  const double base = results[0].jct.mean();
  for (const auto& r : results) {
    table.add_row({r.label, TextTable::num(r.jct.mean(), 1),
                   TextTable::num((1.0 - r.jct.mean() / base) * 100, 1) +
                       "%",
                   TextTable::num(r.efficiency.mean()),
                   TextTable::num(r.productivity.mean())});
  }
  std::printf("%s\n", table.str().c_str());
}

void bu_granularity(BenchArtifact& artifact) {
  print_header("Ablation: block-unit granularity (paper fixes BU = 8 MB)",
               "too-small BUs inflate the ramp; too-large BUs coarsen "
               "load balancing");
  artifact.record_seeds(default_seeds(5));
  TextTable table({"BU size (MB)", "JCT (s)", "Efficiency"});
  for (const MiB bu : {4.0, 8.0, 16.0, 32.0}) {
    OnlineStats jct;
    OnlineStats eff;
    for (const auto seed : default_seeds(5)) {
      auto cluster = cluster::presets::physical12();
      auto bench = workloads::benchmark("WC");
      workloads::RunConfig config;
      config.params.seed = seed;
      const auto scheduler =
          workloads::make_scheduler(workloads::SchedulerKind::kFlexMap,
                                    seed);
      cluster.reset();
      Simulator sim;
      // Hand-build the layout so the BU size can differ from the default.
      Rng rng(seed);
      hdfs::NameNode nn(cluster.num_nodes(), hdfs::PlacementPolicy::kRandom,
                        rng.split());
      const auto layout = nn.create_file(bench.small_input,
                                         config.block_size,
                                         config.replication, bu);
      auto spec = workloads::to_job_spec(bench, workloads::InputScale::kSmall);
      recover::RecoveryRunner runner(sim, cluster, layout, spec,
                                     config.params, *scheduler, config.faults);
      const auto result = runner.run();
      jct.add(result.jct());
      eff.add(result.efficiency());
    }
    table.add_row({TextTable::num(bu, 0), TextTable::num(jct.mean(), 1),
                   TextTable::num(eff.mean())});
    const std::string series =
        "bu/" + std::to_string(static_cast<int>(bu)) + "MB";
    artifact.add_metric(series, "jct", jct);
    artifact.add_metric(series, "efficiency", eff);
  }
  std::printf("%s\n", table.str().c_str());
}

void oracle_gap(BenchArtifact& artifact) {
  print_header("Ablation: FlexMap vs a perfect-knowledge oracle",
               "the Oracle-FlexMap gap is the cost of *estimating* speeds "
               "via Eq. 3; Oracle-Hadoop is the full value of elasticity");
  TextTable table({"System", "physical JCT (s)", "virtual JCT (s)"});
  std::vector<double> physical(3, 0), virt(3, 0);
  const auto seeds = default_seeds(5);
  artifact.record_seeds(seeds);
  for (int env = 0; env < 2; ++env) {
    auto& column = env == 0 ? physical : virt;
    OnlineStats hadoop, flexmap, oracle;
    for (const auto seed : seeds) {
      workloads::RunConfig config;
      config.params.seed = seed;
      auto make = [&]() {
        return env == 0 ? cluster::presets::physical12()
                        : cluster::presets::virtual20();
      };
      auto c1 = make();
      hadoop.add(workloads::run_job(c1, workloads::benchmark("WC"),
                                    workloads::InputScale::kSmall,
                                    workloads::SchedulerKind::kHadoop,
                                    config)
                     .jct());
      auto c2 = make();
      flexmap.add(workloads::run_job(c2, workloads::benchmark("WC"),
                                     workloads::InputScale::kSmall,
                                     workloads::SchedulerKind::kFlexMap,
                                     config)
                      .jct());
      auto c3 = make();
      flexmap::OracleScheduler oracle_sched(c3);
      oracle.add(workloads::run_job(c3, workloads::benchmark("WC"),
                                    workloads::InputScale::kSmall,
                                    oracle_sched, config)
                     .jct());
    }
    column[0] = hadoop.mean();
    column[1] = flexmap.mean();
    column[2] = oracle.mean();
  }
  const char* names[] = {"Hadoop", "FlexMap", "FlexMap-oracle"};
  for (int row = 0; row < 3; ++row) {
    table.add_row({names[row], TextTable::num(physical[static_cast<size_t>(row)], 1),
                   TextTable::num(virt[static_cast<size_t>(row)], 1)});
    const std::string series = std::string("oracle/") + names[row];
    artifact.add_metric(series, "physical_jct",
                        physical[static_cast<size_t>(row)]);
    artifact.add_metric(series, "virtual_jct",
                        virt[static_cast<size_t>(row)]);
  }
  std::printf("%s\n", table.str().c_str());
}

void warm_start_iterations(BenchArtifact& artifact) {
  print_header("Ablation: warm-started iterative jobs (k-means, 4 iters)",
               "warm start skips the sizing ramp from iteration 2 on");
  TextTable table({"Iteration", "cold JCT (s)", "cold maps",
                   "warm JCT (s)", "warm maps"});
  auto cluster = cluster::presets::heterogeneous6();
  auto bench = workloads::benchmark("KM");
  bench.small_input = gib_to_mib(4);

  flexmap::FlexMapScheduler cold;
  const auto cold_runs = workloads::run_iterations(
      cluster, bench, workloads::InputScale::kSmall, cold,
      workloads::RunConfig{}, 4);
  flexmap::FlexMapOptions warm_options;
  warm_options.warm_start = true;
  flexmap::FlexMapScheduler warm(warm_options);
  const auto warm_runs = workloads::run_iterations(
      cluster, bench, workloads::InputScale::kSmall, warm,
      workloads::RunConfig{}, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    table.add_row({std::to_string(i + 1),
                   TextTable::num(cold_runs[i].jct(), 1),
                   std::to_string(cold_runs[i].map_tasks_launched()),
                   TextTable::num(warm_runs[i].jct(), 1),
                   std::to_string(warm_runs[i].map_tasks_launched())});
    const std::string series = "warm-start/iter" + std::to_string(i + 1);
    artifact.add_metric(series, "cold_jct", cold_runs[i].jct());
    artifact.add_metric(series, "warm_jct", warm_runs[i].jct());
    artifact.add_metric(
        series, "cold_maps",
        static_cast<double>(cold_runs[i].map_tasks_launched()));
    artifact.add_metric(
        series, "warm_maps",
        static_cast<double>(warm_runs[i].map_tasks_launched()));
  }
  std::printf("%s\n", table.str().c_str());
}

}  // namespace
}  // namespace flexmr::bench

int main() {
  using namespace flexmr;
  bench::BenchArtifact artifact(
      "ablation", "Mechanism ablation, BU granularity, oracle gap, "
                  "warm start");
  bench::mechanism_ablation(
      "Ablation (physical cluster, wordcount): FlexMap mechanisms",
      []() { return cluster::presets::physical12(); }, "WC", artifact,
      "mechanism/physical-WC");
  bench::mechanism_ablation(
      "Ablation (virtual cluster, tera-sort): reduce bias matters most "
      "for reduce-heavy jobs",
      []() { return cluster::presets::virtual20(); }, "TS", artifact,
      "mechanism/virtual-TS");
  bench::bu_granularity(artifact);
  bench::oracle_gap(artifact);
  bench::warm_start_iterations(artifact);
  artifact.write();
  return 0;
}
