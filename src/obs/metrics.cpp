#include "obs/metrics.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace flexmr::obs {

void LogHistogram::record(double value) {
  if (buckets_.empty()) buckets_.assign(kNumBuckets, 0);
  ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  ++count_;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

int LogHistogram::bucket_index(double value) {
  if (!(value > kFirstBound)) return 0;
  const double octaves = std::log2(value / kFirstBound);
  const int idx = static_cast<int>(octaves * kBucketsPerOctave) + 1;
  return idx >= kNumBuckets ? kNumBuckets - 1 : idx;
}

double LogHistogram::bucket_lower(int index) {
  if (index <= 0) return 0.0;
  return kFirstBound *
         std::exp2(static_cast<double>(index - 1) / kBucketsPerOctave);
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    cumulative += buckets_[static_cast<std::size_t>(i)];
    if (static_cast<double>(cumulative) >= target) {
      // Geometric midpoint of the bucket, clamped to the observed range.
      const double lo = bucket_lower(i);
      const double hi = bucket_lower(i + 1);
      const double mid = lo <= 0.0 ? hi * 0.5 : std::sqrt(lo * hi);
      return std::min(std::max(mid, min()), max());
    }
  }
  return max();
}

MetricsRegistry::MetricsRegistry(double cadence_s) : cadence_s_(cadence_s) {
  FLEXMR_ASSERT_MSG(cadence_s_ > 0.0, "metrics cadence must be positive");
}

MetricsRegistry::Counter& MetricsRegistry::counter(const std::string& name) {
  auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return *counters_[it->second];
  FLEXMR_ASSERT_MSG(rows_.empty(),
                    "register instruments before sampling starts");
  counter_index_.emplace(name, counters_.size());
  counter_names_.push_back(name);
  counters_.push_back(std::make_unique<Counter>());
  return *counters_.back();
}

void MetricsRegistry::register_gauge(const std::string& name, GaugeFn fn) {
  FLEXMR_ASSERT(fn != nullptr);
  FLEXMR_ASSERT_MSG(rows_.empty(),
                    "register instruments before sampling starts");
  gauge_names_.push_back(name);
  gauges_.push_back(std::move(fn));
}

LogHistogram& MetricsRegistry::histogram(const std::string& name) {
  auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return *histograms_[it->second];
  histogram_index_.emplace(name, histograms_.size());
  histogram_names_.push_back(name);
  histograms_.push_back(std::make_unique<LogHistogram>());
  return *histograms_.back();
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : counters_[it->second]->value();
}

std::size_t MetricsRegistry::num_columns() const {
  return counters_.size() + gauges_.size();
}

void MetricsRegistry::capture_row(SimTime ts) {
  Row row;
  row.ts = ts;
  row.values.reserve(num_columns());
  for (const auto& c : counters_) {
    row.values.push_back(static_cast<double>(c->value()));
  }
  for (const auto& g : gauges_) row.values.push_back(g());
  rows_.push_back(std::move(row));
}

void MetricsRegistry::maybe_sample(SimTime now) {
  while (now >= next_sample_) {
    capture_row(next_sample_);
    next_sample_ += cadence_s_;
  }
}

void MetricsRegistry::sample_now(SimTime now) {
  maybe_sample(now);
  if (rows_.empty() || rows_.back().ts < now) capture_row(now);
}

std::string MetricsRegistry::csv() const {
  std::ostringstream os;
  os << "ts_s";
  auto emit_name = [&os](const std::string& name) {
    // Column names are instrument names we choose ourselves; keep CSV
    // simple by mapping the two structural characters to '_'.
    os << ',';
    for (char c : name) os << ((c == ',' || c == '\n') ? '_' : c);
  };
  for (const auto& n : counter_names_) emit_name(n);
  for (const auto& n : gauge_names_) emit_name(n);
  os << '\n';
  for (const Row& row : rows_) {
    os << JsonWriter::number(row.ts);
    for (double v : row.values) os << ',' << JsonWriter::number(v);
    os << '\n';
  }
  return os.str();
}

std::string MetricsRegistry::histogram_summary() const {
  TextTable table({"histogram", "count", "mean", "p50", "p90", "p99",
                   "min", "max"});
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const LogHistogram& h = *histograms_[i];
    table.add_row({histogram_names_[i], std::to_string(h.count()),
                   TextTable::num(h.mean()), TextTable::num(h.percentile(0.5)),
                   TextTable::num(h.percentile(0.9)),
                   TextTable::num(h.percentile(0.99)), TextTable::num(h.min()),
                   TextTable::num(h.max())});
  }
  return table.str();
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("cadence_s", cadence_s_);
  w.key("columns").begin_array();
  w.value("ts_s");
  for (const auto& n : counter_names_) w.value(n);
  for (const auto& n : gauge_names_) w.value(n);
  w.end_array();
  w.key("rows").begin_array();
  for (const Row& row : rows_) {
    w.begin_array();
    w.value(row.ts);
    for (double v : row.values) w.value(v);
    w.end_array();
  }
  w.end_array();
  w.key("histograms").begin_array();
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const LogHistogram& h = *histograms_[i];
    w.begin_object();
    w.field("name", histogram_names_[i]);
    w.field("count", h.count());
    w.field("sum", h.sum());
    w.field("mean", h.mean());
    w.field("min", h.min());
    w.field("max", h.max());
    w.field("p50", h.percentile(0.5));
    w.field("p90", h.percentile(0.9));
    w.field("p99", h.percentile(0.99));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace flexmr::obs
