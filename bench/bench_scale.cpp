// BENCH_scale: events/sec + wall-clock scaling baseline for the simulation
// hot paths (the repo's first recorded throughput trajectory).
//
// The paper evaluates on 12-40 node clusters; the roadmap's north star is
// large-cluster sweeps. This bench runs one paired job per (cluster size,
// scheduler) point across {16, 64, 256, 1000} nodes with the map-task count
// scaled to ~100 tasks/node (so the 1000-node point runs ~100k stock map
// tasks), on a heterogeneous fleet where a fifth of the nodes suffer bursty
// interference — which keeps completion re-estimation (schedule/cancel
// churn) part of what is measured, exactly the path the event-queue
// compaction and heartbeat optimizations target.
//
// Flags:
//   --smoke            small grid ({16, 64} nodes, 25 tasks/node) for CI
//   --nodes=a,b,c      override the cluster-size list
//   --tasks-per-node=N override the task density (default 100)
//   --schedulers=a,b   restrict the grid to a comma-separated subset of
//                      the scheduler labels
//                      (Hadoop-128m, Hadoop-64m, SkewTune-64m, FlexMap).
//   --profile          activate the self-profiler (DESIGN.md §15): host
//                      wall-clock attribution for dispatch / RM offers /
//                      speculation scans, written to PROFILE_scale.json
//                      next to the bench artifact.
//                      Setting FLEXMR_PROFILE=1 does the same.
//
// Grid points run one at a time (never on the sweep pool), so their wall
// clocks are like-for-like; the artifact records hardware_concurrency.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/scale_grid.hpp"

namespace {

using namespace flexmr;

std::vector<std::uint32_t> parse_list(const char* arg) {
  std::vector<std::uint32_t> out;
  std::string s(arg);
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    out.push_back(static_cast<std::uint32_t>(std::strtoul(tok.c_str(),
                                                          nullptr, 10)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> sizes = {16, 64, 256, 1000, 10000};
  std::uint32_t tasks_per_node = 100;
  std::string scheduler_filter;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      sizes = {16, 64};
      tasks_per_node = 25;
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      sizes = parse_list(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--tasks-per-node=", 17) == 0) {
      tasks_per_node = static_cast<std::uint32_t>(
          std::strtoul(argv[i] + 17, nullptr, 10));
    } else if (std::strncmp(argv[i], "--schedulers=", 13) == 0) {
      scheduler_filter = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      bench::enable_profiling();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::vector<bench::SweepPoint> points;
  for (const auto& point : bench::paper_comparison_points()) {
    if (scheduler_filter.empty() ||
        scheduler_filter.find(point.label) != std::string::npos) {
      points.push_back(point);
    }
  }
  if (points.empty()) {
    std::fprintf(stderr, "--schedulers=%s matched no scheduler label\n",
                 scheduler_filter.c_str());
    return 2;
  }

  bench::print_header(
      "BENCH scale — event-queue & heartbeat scaling baseline",
      "simulator throughput (events/sec) should stay flat as the cluster "
      "and task count grow; wall-clock should scale ~linearly with events");

  bench::BenchArtifact artifact("scale",
                                "Hot-path scaling baseline: events/sec and "
                                "wall-clock across cluster sizes");
  const std::uint64_t seed = 42;
  artifact.record_seeds({seed});

  TextTable table({"nodes", "scheduler", "map tasks", "jct (s)",
                   "wall (s)", "events", "events/s", "queue peak"});

  for (const std::uint32_t nodes : sizes) {
    const auto bench_def = bench::make_scale_benchmark(nodes, tasks_per_node);
    for (const auto& point : points) {
      auto cluster = bench::make_scale_cluster(nodes);
      workloads::RunConfig config;
      config.block_size = point.block_size;
      config.params.seed = seed;
      const auto start = std::chrono::steady_clock::now();
      const auto result =
          workloads::run_job(cluster, bench_def, workloads::InputScale::kSmall,
                             point.kind, config);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      std::size_t map_tasks = 0;
      for (const auto& rec : result.tasks) {
        if (rec.kind == mr::TaskKind::kMap) ++map_tasks;
      }
      const double events = static_cast<double>(result.sim_events_fired);
      const double eps = wall > 0 ? events / wall : 0.0;

      table.add_row({std::to_string(nodes), point.label,
                     std::to_string(map_tasks), TextTable::num(result.jct()),
                     TextTable::num(wall), TextTable::num(events, 0),
                     TextTable::num(eps, 0),
                     std::to_string(result.sim_queue_peak)});

      const std::string series =
          "nodes" + std::to_string(nodes) + "/" + point.label;
      artifact.add_metric(series, "jct", result.jct());
      artifact.add_metric(series, "wall_clock_s", wall);
      artifact.add_metric(series, "events_fired", events);
      artifact.add_metric(series, "events_per_sec", eps);
      artifact.add_metric(series, "events_cancelled",
                          static_cast<double>(result.sim_events_cancelled));
      artifact.add_metric(series, "queue_peak",
                          static_cast<double>(result.sim_queue_peak));
      artifact.add_metric(series, "map_tasks",
                          static_cast<double>(map_tasks));
      std::printf("  done: %u nodes, %-12s  wall %.2fs  %.0f events/s\n",
                  nodes, point.label.c_str(), wall, eps);
      std::fflush(stdout);
    }
  }

  // Wall-clock figures only mean something next to the host's core count.
  {
    JsonWriter host;
    host.begin_object();
    host.field("hardware_concurrency",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    host.end_object();
    artifact.attach("host", host.str());
  }

  std::printf("\n%s\n", table.str().c_str());
  artifact.write();
  return 0;
}
