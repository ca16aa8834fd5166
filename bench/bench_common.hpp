// Shared helpers for the figure/table reproduction harnesses.
//
// Every bench prints (a) what it reproduces, (b) the paper's qualitative
// expectation, and (c) a TextTable of measured values, so the output can be
// pasted into EXPERIMENTS.md and compared row by row.
// Every bench also writes a machine-readable BENCH_<figure>.json artifact
// (schema "flexmr.bench.v1") via BenchArtifact, so the numbers survive the
// run and later PRs can diff them for regressions/speedups.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/json.hpp"
#include "common/logging.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "workloads/experiment.hpp"

namespace flexmr::bench {

inline void print_header(const std::string& figure,
                         const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("Paper expectation: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

/// Mean JCT over `seeds` paired runs of (bench, scheduler) on a fresh
/// cluster from `make_cluster`. Pairing: seed s uses the same layout and
/// interference draw for every scheduler.
struct SweepPoint {
  workloads::SchedulerKind kind;
  MiB block_size;
  std::string label;
};

struct SweepResult {
  std::string label;
  OnlineStats jct;
  OnlineStats efficiency;
  OnlineStats productivity;
  /// Real (host) seconds per simulation run — the perf trajectory the
  /// BENCH_*.json series carry across PRs. Sweep items run on a shared
  /// pool, so a run timed while its siblings saturate the cores is slower
  /// than the same run timed alone; read together with pool_occupancy
  /// (speedup-style comparisons belong in serial-measured series).
  OnlineStats run_wall_clock;
  /// Pool tasks in flight (including this one) when the item was timed —
  /// 1 means the wall clock is contention-free, pool-size means fully
  /// contended.
  OnlineStats pool_occupancy;
  /// Peak RSS (KiB) sampled when this result's sweep finished — the
  /// process high-water mark *as of that sweep*, so multi-sweep benches get
  /// a per-series trajectory instead of one end-of-process number. RSS is
  /// monotone, so a series can only implicate earlier-or-own allocations.
  std::uint64_t peak_rss_kib = 0;
};

/// Peak resident set size of this process so far, in KiB (ru_maxrss is
/// KiB on Linux; converted from bytes on macOS). 0 where unsupported.
inline std::uint64_t peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
#else
  return 0;
#endif
}

/// The sweep worker pool, shared across sweeps within one bench binary.
/// Deliberately not a bare `static ThreadPool` at the use site: the pool
/// is destroyed at static-destruction time with workers still joinable,
/// and its teardown may log through the Logger singleton. Touching
/// Logger::instance() before first constructing the pool pins the
/// construction order (Logger first), so reverse static destruction tears
/// the pool down — joining its workers — while the Logger is still alive.
inline ThreadPool& sweep_pool() {
  Logger::instance();
  static ThreadPool pool;
  return pool;
}

/// Runs |points| × |seeds| simulations in parallel over a thread pool.
inline std::vector<SweepResult> sweep(
    const std::function<cluster::Cluster()>& make_cluster,
    const workloads::Benchmark& bench, workloads::InputScale scale,
    const std::vector<SweepPoint>& points,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<SweepResult> results(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    results[i].label = points[i].label;
  }

  struct WorkItem {
    std::size_t point;
    std::uint64_t seed;
  };
  std::vector<WorkItem> items;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (const auto seed : seeds) items.push_back({i, seed});
  }

  // Per-item buffers, folded below in fixed item order. Folding OnlineStats
  // directly from the workers would accumulate in thread-completion order,
  // and Welford's update is not commutative in floating point — the same
  // sweep would produce different BENCH_*.json means/stddevs run to run.
  struct ItemResult {
    double jct = 0;
    double efficiency = 0;
    double productivity = 0;
    double run_wall_clock = 0;
    double pool_occupancy = 1;
  };
  std::vector<ItemResult> measured(items.size());

  ThreadPool& pool = sweep_pool();
  pool.parallel_for_each(items.begin(), items.end(), [&](const WorkItem& w) {
    auto cluster = make_cluster();
    workloads::RunConfig config;
    config.block_size = points[w.point].block_size;
    config.params.seed = w.seed;
    // Occupancy at timing start: how many sibling runs compete for cores
    // while this one's wall clock ticks. Recorded alongside the time so
    // cross-PR consumers can tell contention from real slowdowns.
    const auto occupancy = static_cast<double>(pool.active());
    const auto run_start = std::chrono::steady_clock::now();
    const auto result = workloads::run_job(cluster, bench, scale,
                                           points[w.point].kind, config);
    const double run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count();
    const std::size_t index = static_cast<std::size_t>(&w - items.data());
    measured[index] =
        ItemResult{result.jct(), result.efficiency(),
                   result.mean_map_productivity(), run_seconds, occupancy};
  });
  for (std::size_t i = 0; i < items.size(); ++i) {
    SweepResult& out = results[items[i].point];
    out.jct.add(measured[i].jct);
    out.efficiency.add(measured[i].efficiency);
    out.productivity.add(measured[i].productivity);
    out.run_wall_clock.add(measured[i].run_wall_clock);
    out.pool_occupancy.add(measured[i].pool_occupancy);
  }
  // Sample at sweep completion (not process exit) so each sweep's series
  // carry the memory state their runs actually produced.
  const std::uint64_t rss_now = peak_rss_kib();
  for (auto& result : results) result.peak_rss_kib = rss_now;
  return results;
}

/// Mean of a cell where every run may have aborted (no samples).
inline double mean_or_zero(const OnlineStats& stats) {
  return stats.count() > 0 ? stats.mean() : 0.0;
}

/// Events of `type` in a run's fault timeline.
inline double count_events(const mr::JobResult& result,
                           faults::FaultEventType type) {
  double n = 0;
  for (const auto& e : result.fault_events) {
    if (e.type == type) ++n;
  }
  return n;
}

/// Runs |kinds| × |points| × |seeds| small-input jobs of `bench` on the
/// sweep pool; apply(config, p) sets point p's faults. Like sweep(), it
/// folds in item order once the pool drains: `fold` adds each finished run
/// to its cell, and a run that aborts (JobAbortedError) is counted in the
/// cell's aborted_runs, not averaged.
template <typename Cell>
std::vector<std::vector<Cell>> fault_sweep(
    const std::function<cluster::Cluster()>& make_cluster,
    const workloads::Benchmark& bench,
    const std::vector<workloads::SchedulerKind>& kinds,
    std::size_t num_points, const std::vector<std::uint64_t>& seeds,
    const std::function<void(workloads::RunConfig&, std::size_t)>& apply,
    const std::function<void(Cell&, const mr::JobResult&)>& fold) {
  struct WorkItem {
    std::size_t kind;
    std::size_t point;
    std::uint64_t seed;
  };
  std::vector<WorkItem> items;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    for (std::size_t p = 0; p < num_points; ++p) {
      for (const auto seed : seeds) items.push_back({k, p, seed});
    }
  }

  // Empty where the run aborted.
  std::vector<std::optional<mr::JobResult>> finished(items.size());
  sweep_pool().parallel_for_each(
      items.begin(), items.end(), [&](const WorkItem& w) {
        auto cluster = make_cluster();
        workloads::RunConfig config;
        config.params.seed = w.seed;
        apply(config, w.point);
        try {
          finished[static_cast<std::size_t>(&w - items.data())] =
              workloads::run_job(cluster, bench,
                                 workloads::InputScale::kSmall,
                                 kinds[w.kind], config);
        } catch (const mr::JobAbortedError&) {
        }
      });

  std::vector<std::vector<Cell>> cells(kinds.size(),
                                       std::vector<Cell>(num_points));
  for (std::size_t i = 0; i < items.size(); ++i) {
    Cell& cell = cells[items[i].kind][items[i].point];
    if (finished[i]) {
      fold(cell, *finished[i]);
    } else {
      ++cell.aborted_runs;
    }
  }
  return cells;
}

/// Activates the process-global self-profiler (idempotent; DESIGN.md §15).
/// The profiler binds its scope stack to the calling thread, so call this
/// from main before any simulation: sweep items running on pool workers
/// contribute no scopes (by design — their stacks would interleave), while
/// everything the main thread simulates is attributed.
inline void enable_profiling() {
  static obs::Profiler profiler;
  if (obs::Profiler::active() == nullptr) {
    obs::Profiler::activate(profiler);
  }
}

/// True if FLEXMR_PROFILE is set to anything but "" or "0" — the
/// environment opt-in every bench binary honors (CI uses it to collect
/// PROFILE_*.json from the smoke grid without per-bench flags).
inline bool profiling_requested_by_env() {
  const char* env = std::getenv("FLEXMR_PROFILE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// The four comparison systems of Fig. 5 / Fig. 6.
inline std::vector<SweepPoint> paper_comparison_points() {
  using workloads::SchedulerKind;
  return {
      {SchedulerKind::kHadoop, kLargeBlockMiB, "Hadoop-128m"},
      {SchedulerKind::kHadoop, kDefaultBlockMiB, "Hadoop-64m"},
      {SchedulerKind::kSkewTune, kDefaultBlockMiB, "SkewTune-64m"},
      {SchedulerKind::kFlexMap, kDefaultBlockMiB, "FlexMap"},
  };
}

inline std::vector<std::uint64_t> default_seeds(std::size_t n = 5) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < n; ++i) seeds.push_back(1000 + 17 * i);
  return seeds;
}

/// Shared BENCH_<figure>.json emitter. One artifact per bench binary:
/// named series, each holding named metric summaries (mean/stddev/min/max/
/// count), plus the seeds used and the bench's wall-clock time. Figures
/// with richer output (e.g. the Fig. 7 sizing trace) attach it verbatim
/// under "extra".
class BenchArtifact {
 public:
  BenchArtifact(std::string figure, std::string title)
      : figure_(std::move(figure)),
        title_(std::move(title)),
        start_(std::chrono::steady_clock::now()) {
    if (profiling_requested_by_env()) enable_profiling();
  }

  /// Records the seeds a section ran with (duplicates collapse).
  void record_seeds(const std::vector<std::uint64_t>& seeds) {
    for (const auto seed : seeds) {
      if (std::find(seeds_.begin(), seeds_.end(), seed) == seeds_.end()) {
        seeds_.push_back(seed);
      }
    }
  }

  void add_metric(const std::string& series, const std::string& metric,
                  const OnlineStats& stats) {
    add(series, metric,
        Summary{stats.mean(), stats.stddev(), stats.min(), stats.max(),
                stats.count()});
  }

  void add_metric(const std::string& series, const std::string& metric,
                  const SampleSet& samples) {
    add(series, metric,
        Summary{samples.mean(), samples.stddev(), samples.min(),
                samples.max(), samples.count()});
  }

  /// Single measured value (count 1, stddev 0).
  void add_metric(const std::string& series, const std::string& metric,
                  double value) {
    add(series, metric, Summary{value, 0.0, value, value, 1});
  }

  /// The standard sweep triple: one series per result labeled
  /// "<prefix>/<label>" with jct, efficiency and productivity summaries.
  void add_sweep(const std::string& prefix,
                 const std::vector<SweepResult>& results) {
    for (const auto& result : results) {
      const std::string series = prefix + "/" + result.label;
      add_metric(series, "jct", result.jct);
      add_metric(series, "efficiency", result.efficiency);
      add_metric(series, "productivity", result.productivity);
      if (result.run_wall_clock.count() > 0) {
        add_metric(series, "run_wall_clock_s", result.run_wall_clock);
        add_metric(series, "pool_occupancy", result.pool_occupancy);
      }
      if (result.peak_rss_kib > 0) {
        add_metric(series, "peak_rss_kib",
                   static_cast<double>(result.peak_rss_kib));
      }
    }
  }

  /// Attaches a pre-serialized JSON document under "extra"."<key>".
  void attach(const std::string& key, std::string raw_json) {
    extra_.emplace_back(key, std::move(raw_json));
  }

  std::string json() const {
    const double wall_clock_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    JsonWriter writer;
    writer.begin_object();
    writer.field("schema", "flexmr.bench.v1");
    writer.field("figure", figure_);
    writer.field("title", title_);
    writer.field("wall_clock_s", wall_clock_s);
    writer.field("peak_rss_kib", peak_rss_kib());
    writer.key("seeds").begin_array();
    for (const auto seed : seeds_) writer.value(seed);
    writer.end_array();
    writer.key("series").begin_array();
    for (const auto& series : series_) {
      writer.begin_object();
      writer.field("label", series.label);
      writer.key("metrics").begin_object();
      for (const auto& [name, summary] : series.metrics) {
        writer.key(name).begin_object();
        writer.field("mean", summary.mean);
        writer.field("stddev", summary.stddev);
        writer.field("min", summary.min);
        writer.field("max", summary.max);
        writer.field("count", static_cast<std::uint64_t>(summary.count));
        writer.end_object();
      }
      writer.end_object();
      writer.end_object();
    }
    writer.end_array();
    writer.key("extra").begin_object();
    for (const auto& [key, raw] : extra_) {
      writer.key(key).raw(raw);
    }
    writer.end_object();
    writer.end_object();
    return writer.str();
  }

  /// Writes BENCH_<figure>.json into the working directory; when the
  /// self-profiler is active, PROFILE_<figure>.json (flexmr.profile.v1)
  /// lands next to it.
  void write() const {
    const std::string path = "BENCH_" + figure_ + ".json";
    if (write_doc(path, json())) {
      std::printf("wrote %s (%zu series)\n", path.c_str(), series_.size());
    }
    if (const obs::Profiler* prof = obs::Profiler::active()) {
      const std::string profile_path = "PROFILE_" + figure_ + ".json";
      if (write_doc(profile_path, prof->json())) {
        std::printf("wrote %s (%zu scopes)\n", profile_path.c_str(),
                    prof->scopes().size());
      }
    }
  }

 private:
  struct Summary {
    double mean = 0;
    double stddev = 0;
    double min = 0;
    double max = 0;
    std::size_t count = 0;
  };
  struct Series {
    std::string label;
    std::vector<std::pair<std::string, Summary>> metrics;
  };

  static bool write_doc(const std::string& path, const std::string& doc) {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return false;
    }
    std::fwrite(doc.data(), 1, doc.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
    return true;
  }

  void add(const std::string& series, const std::string& metric,
           Summary summary) {
    for (auto& existing : series_) {
      if (existing.label == series) {
        existing.metrics.emplace_back(metric, summary);
        return;
      }
    }
    series_.push_back(Series{series, {{metric, summary}}});
  }

  std::string figure_;
  std::string title_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::uint64_t> seeds_;
  std::vector<Series> series_;
  std::vector<std::pair<std::string, std::string>> extra_;
};

}  // namespace flexmr::bench
