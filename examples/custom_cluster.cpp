// Scenario: describe an experiment in an INI file instead of C++.
//
//   ./build/examples/custom_cluster examples/cluster.ini
//
// The file declares machine groups, a workload, a scheduler, optional
// node failures, and output options; this program builds it all through
// the public API and runs it. With no argument it uses a built-in demo
// config. Supported keys (see examples/cluster.ini for a walkthrough):
//
//   [groupN]  model, count, ips, slots, slowdown
//   [job]     benchmark (PUMA code), input_gib, block_mb, repeats
//   [run]     seed, scheduler (hadoop | hadoop-nospec | skewtune |
//             flexmap | flexmap-nov | flexmap-noh | flexmap-norb),
//             gantt (bool), csv (bool)
//   [failures] nodeN = <node_id> @ <time_s>      (e.g. node1 = 3 @ 25)
#include <cstdio>
#include <string>

#include "cluster/cluster.hpp"
#include "common/config.hpp"
#include "common/stats.hpp"
#include "mr/trace.hpp"
#include "workloads/experiment.hpp"

namespace {

constexpr const char* kDemoConfig = R"(
# Demo experiment: small mixed cluster, wordcount under FlexMap.
[group1]
model = rack server
count = 4
ips = 12
slots = 4
slowdown = 1.0

[group2]
model = legacy box
count = 4
ips = 5
slots = 4
slowdown = 1.0

[job]
benchmark = WC
input_gib = 4
block_mb = 64
repeats = 3

[run]
seed = 9
scheduler = flexmap
)";

flexmr::cluster::Cluster build_cluster(const flexmr::Config& config) {
  using namespace flexmr;
  cluster::ClusterBuilder builder;
  for (int g = 1;; ++g) {
    const std::string section = "group" + std::to_string(g);
    if (!config.has(section + ".count")) break;
    cluster::MachineSpec spec;
    spec.model = config.get_string(section + ".model", section);
    spec.base_ips = config.require_double(section + ".ips");
    spec.slots =
        static_cast<std::uint32_t>(config.get_int(section + ".slots", 4));
    const double slowdown =
        config.get_double(section + ".slowdown", 1.0);
    builder.add(spec,
                static_cast<std::uint32_t>(
                    config.require_int(section + ".count")),
                slowdown < 1.0 ? cluster::static_slowdown(slowdown)
                               : cluster::no_interference());
  }
  return builder.build();
}

flexmr::workloads::SchedulerKind parse_scheduler(const std::string& name) {
  using flexmr::workloads::SchedulerKind;
  if (name == "hadoop") return SchedulerKind::kHadoop;
  if (name == "hadoop-nospec") return SchedulerKind::kHadoopNoSpec;
  if (name == "skewtune") return SchedulerKind::kSkewTune;
  if (name == "flexmap") return SchedulerKind::kFlexMap;
  if (name == "flexmap-nov") return SchedulerKind::kFlexMapNoVertical;
  if (name == "flexmap-noh") return SchedulerKind::kFlexMapNoHorizontal;
  if (name == "flexmap-norb") return SchedulerKind::kFlexMapNoReduceBias;
  throw flexmr::ConfigError("unknown scheduler: " + name);
}

/// Appends each `failures.nodeN = <node> @ <time>` entry to `plan` as an
/// oracle-detected, permanent crash.
void parse_failures(const flexmr::Config& config,
                    flexmr::faults::FaultPlan& plan) {
  for (int i = 1;; ++i) {
    const auto value =
        config.get("failures.node" + std::to_string(i));
    if (!value) break;
    const auto at = value->find('@');
    if (at == std::string::npos) {
      throw flexmr::ConfigError("failure spec must be '<node> @ <time>': " +
                                *value);
    }
    plan.crashes.push_back(flexmr::faults::NodeCrash{
        static_cast<flexmr::NodeId>(std::stoul(value->substr(0, at))),
        std::stod(value->substr(at + 1)), std::nullopt, /*silent=*/false});
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flexmr;
  try {
    const Config config = argc > 1 ? Config::load(argv[1])
                                   : Config::parse(kDemoConfig);

    auto cluster = build_cluster(config);
    auto bench =
        workloads::benchmark(config.get_string("job.benchmark", "WC"));
    bench.small_input = gib_to_mib(config.get_double("job.input_gib", 4));

    workloads::RunConfig run;
    run.block_size = config.get_double("job.block_mb", 64.0);
    run.params.seed =
        static_cast<std::uint64_t>(config.get_int("run.seed", 1));
    parse_failures(config, run.faults);
    const auto kind =
        parse_scheduler(config.get_string("run.scheduler", "flexmap"));
    const auto repeats =
        static_cast<std::uint64_t>(config.get_int("job.repeats", 1));

    std::printf("cluster: %u nodes, %u slots; job: %s (%.0f GiB); "
                "scheduler: %s; repeats: %llu%s\n",
                cluster.num_nodes(), cluster.total_slots(),
                bench.name.c_str(), mib_to_gib(bench.small_input),
                workloads::scheduler_label(kind).c_str(),
                static_cast<unsigned long long>(repeats),
                run.faults.crashes.empty() ? "" : "; with failures");

    OnlineStats jct;
    OnlineStats efficiency;
    mr::JobResult last;
    for (std::uint64_t r = 0; r < repeats; ++r) {
      run.params.seed += r * 31;
      last = workloads::run_job(cluster, bench, workloads::InputScale::kSmall,
                                kind, run);
      jct.add(last.jct());
      efficiency.add(last.efficiency());
    }
    std::printf("JCT %.1fs (±%.1f) | efficiency %.3f | %zu map tasks | "
                "%zu reducers\n",
                jct.mean(), jct.stddev(), efficiency.mean(),
                last.map_tasks_launched(),
                last.count(mr::TaskKind::kReduce,
                           mr::TaskStatus::kCompleted));

    if (config.get_bool("run.gantt", false)) {
      std::printf("\n%s", mr::gantt(last, cluster, 100).c_str());
    }
    if (config.get_bool("run.csv", false)) {
      std::printf("\n%s", mr::trace_csv(last).c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
