// flexmr-trace: run an experiment config with tracing enabled and emit
// the flexmr.trace.v1 document, the metrics time-series CSV, and a
// percentile summary table.
//
//   ./build/tools/flexmr-trace examples/trace_demo.ini
//   ./build/tools/flexmr-trace examples/trace_demo.ini --out /tmp/t
//   ./build/tools/flexmr-trace examples/trace_demo.ini --replay
//
// Two trace sources:
//   * live (default) — an obs::TraceSession rides along in RunConfig and
//     records spans, instants, counters and sampled metrics as the
//     simulation runs: the full-resolution view (task phase children,
//     sizing decisions, fetch retries, queue-depth time series).
//   * --replay — the run is executed untraced and the trace is rebuilt
//     afterwards from the JobResult via mr::job_result_trace_json():
//     coarser (one X span per task, fault instants, no metrics rows) but
//     derivable from any finished run.
//
// Options:
//   --out DIR      output directory (default ".")
//   --replay       rebuild the trace from the JobResult instead of live
//   --cadence S    metrics sampling cadence in sim seconds (default 1.0)
//   --no-node-gauges   drop the per-node speed gauge columns (wide CSVs)
//
// The config format is the one examples/custom_cluster reads; see
// examples/trace_demo.ini for a walkthrough.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "mr/trace.hpp"
#include "obs/session.hpp"
#include "service/config.hpp"
#include "workloads/experiment.hpp"

namespace {

constexpr const char* kDemoConfig = R"(
# Built-in demo: mixed cluster, wordcount under FlexMap.
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

[run]
seed = 9
scheduler = flexmap
)";

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw flexmr::ConfigError("cannot write " + path);
  out << content;
}

struct Cli {
  std::string config_path;  // empty = built-in demo
  std::string out_dir = ".";
  bool replay = false;
  double cadence_s = 1.0;
  bool per_node_gauges = true;
  std::string log_filter;  // subsystem tags, e.g. "sim,sched"; empty = off
};

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw flexmr::ConfigError(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--out") {
      cli.out_dir = next();
    } else if (arg == "--replay") {
      cli.replay = true;
    } else if (arg == "--cadence") {
      cli.cadence_s = std::stod(next());
    } else if (arg == "--no-node-gauges") {
      cli.per_node_gauges = false;
    } else if (arg == "--log-filter") {
      cli.log_filter = next();
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: flexmr-trace [config.ini] [--out DIR] [--replay] "
          "[--cadence S] [--no-node-gauges] [--log-filter TAGS]\n"
          "  --log-filter TAGS  raise logging to Debug for the named\n"
          "                     subsystem tags only (e.g. sim,sched,hdfs)\n");
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      throw flexmr::ConfigError("unknown option: " + arg);
    } else {
      cli.config_path = arg;
    }
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flexmr;
  try {
    const Cli cli = parse_cli(argc, argv);
    if (!cli.log_filter.empty()) {
      Logger::instance().set_filter(cli.log_filter);
      Logger::instance().set_level(LogLevel::Debug);
    }
    const Config config = cli.config_path.empty()
                              ? Config::parse(kDemoConfig)
                              : Config::load(cli.config_path);

    auto cluster = service::build_cluster(config);
    auto [bench, kind, run] = service::parse_job_config(config);

    obs::TraceOptions options;
    options.metrics_cadence_s = cli.cadence_s;
    options.per_node_gauges = cli.per_node_gauges;
    obs::TraceSession session(options);
    if (!cli.replay) run.trace = &session;
    session.set_metadata("config", cli.config_path.empty()
                                       ? "<built-in demo>"
                                       : cli.config_path);
    session.set_metadata("benchmark", bench.name);
    session.set_metadata("scheduler", workloads::scheduler_label(kind));
    session.set_metadata("seed", std::to_string(run.params.seed));

    std::printf("cluster: %u nodes, %u slots; job: %s (%.0f GiB); "
                "scheduler: %s; trace: %s\n",
                cluster.num_nodes(), cluster.total_slots(),
                bench.name.c_str(), mib_to_gib(bench.small_input),
                workloads::scheduler_label(kind).c_str(),
                cli.replay ? "replay" : "live");

    const auto result = workloads::run_job(
        cluster, bench, workloads::InputScale::kSmall, kind, run);

    const std::string trace_path = cli.out_dir + "/trace.json";
    if (cli.replay) {
      write_file(trace_path, mr::job_result_trace_json(result));
    } else {
      write_file(trace_path, session.trace_json());
      write_file(cli.out_dir + "/metrics.csv", session.metrics_csv());
    }

    std::printf("JCT %.1fs | efficiency %.3f | %zu map tasks | "
                "%zu reducers\n",
                result.jct(), result.efficiency(),
                result.map_tasks_launched(),
                result.count(mr::TaskKind::kReduce,
                             mr::TaskStatus::kCompleted));
    std::printf("wrote %s%s\n", trace_path.c_str(),
                cli.replay ? "" : (" and " + cli.out_dir +
                                   "/metrics.csv").c_str());
    if (!cli.replay) {
      std::printf("\n%s", session.summary().c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
