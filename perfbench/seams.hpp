// Timing seams at the simulator's public interfaces, for the traced run.
//
//   TimedScheduler  an mr::Scheduler that forwards every callback to the
//                   real policy and records one span per call;
//   TimedContext    the mr::DriverContext the wrapped policy sees: it
//                   forwards every accessor to the real driver, records a
//                   span per running_maps() call and counts observed_ips()
//                   and kill_and_reclaim() calls.
//
// Spans (name, start, end, parent) are kept in memory and summarised or
// written out after the job. Each scheduler callback also opens an
// obs::ProfScope, so the profiler's RM-offer self time excludes the policy
// time measured here. Nothing in the simulator is instrumented for this.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mr/scheduler.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

using namespace flexmr;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum SpanName : std::uint16_t {
  kJobStart,
  kRecovery,
  kSlotFree,
  kMapDispatch,
  kMapComplete,
  kHeartbeat,
  kNodeFailed,
  kAttemptFailed,
  kNodeRecovered,
  kBlockRehosted,
  kAcceptReducer,
  kRunningMaps,  // DriverContext call, child of a scheduler span
  kNumSpanNames,
};

inline const char* span_label(std::uint16_t name) {
  static const char* const kLabels[kNumSpanNames] = {
      "sched.job_start",     "sched.recovery",       "sched.slot_free",
      "sched.map_dispatch",  "sched.map_complete",   "sched.heartbeat",
      "sched.node_failed",   "sched.attempt_failed", "sched.node_recovered",
      "sched.block_rehosted", "sched.accept_reducer", "mr.running_maps"};
  return kLabels[name];
}

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  // index + 1 into the log; 0 = root
  std::uint16_t name = 0;
};

class SpanLog {
 public:
  void open(std::uint16_t name) {
    const auto parent = stack_.empty() ? 0u : stack_.back() + 1;
    stack_.push_back(static_cast<std::uint32_t>(spans_.size()));
    spans_.push_back({now_ns(), 0, parent, name});
  }
  void close() {
    spans_[stack_.back()].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Per-name totals over a span log. Self time is a span's duration minus
/// the durations of its direct children.
struct SpanStats {
  std::uint64_t calls[kNumSpanNames] = {};
  std::uint64_t busy_ns[kNumSpanNames] = {};
  std::uint64_t self_ns[kNumSpanNames] = {};
  std::uint64_t root_busy_ns = 0;  // all top-level (scheduler) spans
  std::vector<std::uint64_t> slot_free_ns;  // per call, sorted

  explicit SpanStats(const SpanLog& log) {
    const auto& spans = log.spans();
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::uint64_t dur = s.end_ns - s.start_ns;
      ++calls[s.name];
      busy_ns[s.name] += dur;
      self_ns[s.name] += dur - child_ns[i];
      if (s.parent == 0) root_busy_ns += dur;
      if (s.name == kSlotFree) slot_free_ns.push_back(dur);
    }
    std::sort(slot_free_ns.begin(), slot_free_ns.end());
  }

  /// Nearest-rank quantile of the slot_free durations, in microseconds.
  double slot_free_quantile_us(double q) const {
    if (slot_free_ns.empty()) return 0.0;
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(slot_free_ns.size() - 1) + 0.5);
    return static_cast<double>(slot_free_ns[rank]) / 1e3;
  }
};

/// The DriverContext a wrapped scheduler sees. Every accessor forwards to
/// the real driver (bound per callback), so decisions are unchanged.
class TimedContext final : public mr::DriverContext {
 public:
  explicit TimedContext(SpanLog& log) : log_(&log) {}

  mr::DriverContext& bind(mr::DriverContext& inner) {
    inner_ = &inner;
    return *this;
  }

  // Counted from const accessors, hence mutable.
  mutable std::uint64_t running_maps_calls = 0;
  mutable std::uint64_t running_maps_entries = 0;
  mutable std::uint64_t observed_ips_calls = 0;
  std::uint64_t kill_and_reclaim_calls = 0;

  SimTime now() const override { return inner_->now(); }
  const mr::JobSpec& job() const override { return inner_->job(); }
  const mr::SimParams& params() const override { return inner_->params(); }
  const hdfs::FileLayout& layout() const override { return inner_->layout(); }
  hdfs::BlockLocationIndex& index() override { return inner_->index(); }
  std::uint32_t num_nodes() const override { return inner_->num_nodes(); }
  const cluster::MachineSpec& machine_spec(NodeId node) const override {
    return inner_->machine_spec(node);
  }
  std::uint32_t free_slots(NodeId node) const override {
    return inner_->free_slots(node);
  }
  std::uint32_t total_free_slots() const override {
    return inner_->total_free_slots();
  }
  std::uint32_t total_slots() const override { return inner_->total_slots(); }
  std::vector<mr::RunningMapInfo> running_maps() const override {
    log_->open(kRunningMaps);
    auto maps = inner_->running_maps();
    log_->close();
    ++running_maps_calls;
    running_maps_entries += maps.size();
    return maps;
  }
  LaneSet* lane_set() const override { return inner_->lane_set(); }
  std::optional<MiBps> observed_ips(NodeId node) const override {
    ++observed_ips_calls;
    return inner_->observed_ips(node);
  }
  double map_phase_progress() const override {
    return inner_->map_phase_progress();
  }
  std::size_t total_bus() const override { return inner_->total_bus(); }
  std::size_t processed_bus() const override {
    return inner_->processed_bus();
  }
  std::size_t unassigned_bus() const override {
    return inner_->unassigned_bus();
  }
  std::uint32_t total_reducers() const override {
    return inner_->total_reducers();
  }
  MiB next_reducer_input() const override {
    return inner_->next_reducer_input();
  }
  MiB mean_reducer_input() const override {
    return inner_->mean_reducer_input();
  }
  bool node_alive(NodeId node) const override {
    return inner_->node_alive(node);
  }
  bool node_blacklisted(NodeId node) const override {
    return inner_->node_blacklisted(node);
  }
  bool block_readable(std::uint32_t block) const override {
    return inner_->block_readable(block);
  }
  obs::EventTracer* tracer() const override { return inner_->tracer(); }
  recover::JobJournal* journal() const override { return inner_->journal(); }
  std::vector<BlockUnitId> kill_and_reclaim(TaskId task) override {
    ++kill_and_reclaim_calls;
    return inner_->kill_and_reclaim(task);
  }

 private:
  SpanLog* log_;
  mr::DriverContext* inner_ = nullptr;
};

/// Forwards every Scheduler callback to `inner`, recording a span per call.
class TimedScheduler final : public mr::Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<mr::Scheduler> inner)
      : inner_(std::move(inner)) {}

  const SpanLog& log() const { return log_; }
  const TimedContext& context() const { return ctx_; }
  std::uint64_t launches = 0;
  std::uint64_t speculative_launches = 0;
  std::uint64_t reducers_accepted = 0;

  std::string name() const override { return inner_->name(); }

  void on_job_start(mr::DriverContext& ctx) override {
    Timed t(*this, kJobStart);
    inner_->on_job_start(ctx_.bind(ctx));
  }
  void on_recovery(mr::DriverContext& ctx,
                   const recover::RecoveredState& recovered) override {
    Timed t(*this, kRecovery);
    inner_->on_recovery(ctx_.bind(ctx), recovered);
  }
  std::optional<mr::MapLaunch> on_slot_free(mr::DriverContext& ctx,
                                            NodeId node) override {
    Timed t(*this, kSlotFree);
    auto launch = inner_->on_slot_free(ctx_.bind(ctx), node);
    if (launch) {
      ++launches;
      if (launch->is_speculative()) ++speculative_launches;
    }
    return launch;
  }
  void on_map_dispatch(mr::DriverContext& ctx, TaskId task,
                       NodeId node) override {
    Timed t(*this, kMapDispatch);
    inner_->on_map_dispatch(ctx_.bind(ctx), task, node);
  }
  void on_map_complete(mr::DriverContext& ctx,
                       const mr::TaskRecord& rec) override {
    Timed t(*this, kMapComplete);
    inner_->on_map_complete(ctx_.bind(ctx), rec);
  }
  void on_heartbeat(mr::DriverContext& ctx, NodeId node) override {
    Timed t(*this, kHeartbeat);
    inner_->on_heartbeat(ctx_.bind(ctx), node);
  }
  void on_node_failed(mr::DriverContext& ctx, NodeId node,
                      const std::vector<BlockUnitId>& reclaimed) override {
    Timed t(*this, kNodeFailed);
    inner_->on_node_failed(ctx_.bind(ctx), node, reclaimed);
  }
  void on_attempt_failed(mr::DriverContext& ctx, NodeId node,
                         const std::vector<BlockUnitId>& reclaimed) override {
    Timed t(*this, kAttemptFailed);
    inner_->on_attempt_failed(ctx_.bind(ctx), node, reclaimed);
  }
  void on_node_recovered(mr::DriverContext& ctx, NodeId node) override {
    Timed t(*this, kNodeRecovered);
    inner_->on_node_recovered(ctx_.bind(ctx), node);
  }
  void on_block_rehosted(mr::DriverContext& ctx, std::uint32_t block,
                         NodeId node) override {
    Timed t(*this, kBlockRehosted);
    inner_->on_block_rehosted(ctx_.bind(ctx), block, node);
  }
  bool accept_reducer(mr::DriverContext& ctx, NodeId node) override {
    Timed t(*this, kAcceptReducer);
    const bool accepted = inner_->accept_reducer(ctx_.bind(ctx), node);
    if (accepted) ++reducers_accepted;
    return accepted;
  }

 private:
  /// One span plus a profiler scope around a callback.
  class Timed {
   public:
    Timed(TimedScheduler& owner, SpanName name)
        : log_(&owner.log_), scope_("bench/sched") {
      log_->open(name);
    }
    ~Timed() { log_->close(); }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    SpanLog* log_;
    obs::ProfScope scope_;
  };

  std::unique_ptr<mr::Scheduler> inner_;
  SpanLog log_;
  TimedContext ctx_{log_};
};

/// Writes `log` as tab-separated text: name, start and end (ns, relative to
/// the first span) and parent (1-based span index, 0 = root).
inline bool write_spans(const SpanLog& log, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto& spans = log.spans();
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%llu\t%llu\t%u\n", span_label(s.name),
                 static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0), s.parent);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
