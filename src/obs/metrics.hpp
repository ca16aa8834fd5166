// Metrics primitives sampled on a sim-time cadence.
//
// A MetricsRegistry owns three kinds of instruments:
//
//   Counter       monotonically increasing u64, bumped from instrumented code
//   gauge         a read-only callback evaluated at sample time (queue
//                 depths, free containers, speed estimates — state that
//                 already lives in the subsystem being observed)
//   LogHistogram  log-bucketed value distribution (task runtimes, fetch
//                 sizes) with percentile estimation from bucket midpoints
//
// Sampling is *pull-based and event-queue-free*: the driver's run loop
// calls maybe_sample(now) after every simulator step, and the registry
// emits one time-series row per crossed cadence tick. Between simulator
// events no state changes, so a tick crossed by a quiet gap carries values
// identical to the state at the gap's start; a tick crossed by an event
// carries the state just after that event. This keeps the sampler from
// scheduling simulator events of its own — the golden determinism hashes
// cover the simulator's fired/cancelled/queue-peak counters, which must be
// byte-identical with tracing on and off.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace flexmr {
class JsonWriter;
}

namespace flexmr::obs {

/// Log-bucketed histogram: 4 buckets per octave spanning [1e-6, ~5e17),
/// so any bucket's geometric midpoint is within ~9% of every value it
/// absorbs. Values below the first boundary (including zero) land in
/// bucket 0. Exact count/sum/min/max ride along for the summary table.
class LogHistogram {
 public:
  static constexpr int kBucketsPerOctave = 4;
  static constexpr int kNumBuckets = 320;
  static constexpr double kFirstBound = 1e-6;

  void record(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Percentile estimate (q in [0, 1]) from the bucket geometry; exact at
  /// the min/max endpoints.
  double percentile(double q) const;

  static int bucket_index(double value);
  static double bucket_lower(int index);

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::vector<std::uint64_t> buckets_;
};

class MetricsRegistry {
 public:
  class Counter {
   public:
    void inc(std::uint64_t delta = 1) { value_ += delta; }
    std::uint64_t value() const { return value_; }

   private:
    std::uint64_t value_ = 0;
  };

  using GaugeFn = std::function<double()>;

  explicit MetricsRegistry(double cadence_s = 1.0);

  /// Instruments are created on first use and ordered by registration;
  /// the time-series columns follow that order (counters, then gauges).
  Counter& counter(const std::string& name);
  void register_gauge(const std::string& name, GaugeFn fn);
  LogHistogram& histogram(const std::string& name);

  std::uint64_t counter_value(const std::string& name) const;

  double cadence() const { return cadence_s_; }

  /// Emits one row per cadence tick in (last_sampled, now]; the driver
  /// calls this after every simulator step. Never schedules anything.
  void maybe_sample(SimTime now);
  /// Forces a final row at `now` (job completion), ignoring the cadence.
  void sample_now(SimTime now);

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_columns() const;

  /// Time-series CSV: header `ts_s,<col>,...`, one row per sample.
  std::string csv() const;

  /// Percentile summary of all histograms as an aligned text table.
  std::string histogram_summary() const;

  /// JSON object mirroring the CSV (column names + row arrays), embedded
  /// into flexmr.trace.v1 under "metrics".
  void write_json(JsonWriter& w) const;

 private:
  struct Row {
    SimTime ts;
    std::vector<double> values;
  };

  void capture_row(SimTime ts);

  double cadence_s_;
  SimTime next_sample_ = 0.0;

  std::vector<std::string> counter_names_;
  std::vector<std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::size_t> counter_index_;

  std::vector<std::string> gauge_names_;
  std::vector<GaugeFn> gauges_;

  std::vector<std::string> histogram_names_;
  std::vector<std::unique_ptr<LogHistogram>> histograms_;
  std::map<std::string, std::size_t> histogram_index_;

  std::vector<Row> rows_;
};

}  // namespace flexmr::obs
