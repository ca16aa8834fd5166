#include "flexmap/flexmap_scheduler.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace flexmr::flexmap {

void FlexMapScheduler::on_job_start(mr::DriverContext& ctx) {
  const bool reuse = options_.warm_start && monitor_ != nullptr &&
                     monitor_->num_nodes() == ctx.num_nodes();
  if (!reuse) {
    monitor_ = std::make_unique<SpeedMonitor>(ctx.num_nodes());
  }
  sizer_ = std::make_unique<DynamicSizer>(ctx.num_nodes(), options_.sizing);
  binder_ = std::make_unique<LateTaskBinder>(ctx.index());
  task_epoch_.clear();
  trace_.clear();
  speed_trace_.clear();
  reduce_quota_.clear();
  reduce_assigned_.clear();
  sums_ = {};
}

void FlexMapScheduler::on_recovery(
    mr::DriverContext& ctx, const recover::RecoveredState& recovered) {
  on_job_start(ctx);
  for (const recover::SchedulerNote& note : recovered.scheduler_notes) {
    if (note.kind != kSizingNoteKind) continue;
    sizer_->restore_unit(static_cast<NodeId>(note.a),
                         static_cast<std::uint32_t>(note.b), note.c != 0);
  }
}

std::optional<mr::MapLaunch> FlexMapScheduler::on_slot_free(
    mr::DriverContext& ctx, NodeId node) {
  if (ctx.index().unprocessed() == 0) return std::nullopt;

  FLEXMR_PROF_SCOPE("sched/flexmap_sizing");

  // Algorithm-1 sizing decision, traced with its inputs so a Perfetto
  // view can answer "why did this node get a task this size?".
  obs::ScopedSpan span(ctx.tracer(), {obs::node_pid(node), 0}, "sizing",
                      "flexmap");

  // Horizontal scaling input: how fast is this node relative to the
  // slowest node the monitor has heard from?
  const CapacitySums& sums = capacity_sums(ctx);
  const std::optional<MiBps> own = monitor_->get_speed(node);
  const double relative =
      own && sums.slowest > 0.0 ? *own / sums.slowest : 1.0;
  const std::uint32_t sized = sizer_->task_size(node, relative);

  // End-game guard: a task that would run longer than the map phase's
  // estimated time-to-drain becomes the very straggler elasticity is meant
  // to remove, so cap the launch at what this container can chew through
  // before the cluster drains the remaining work (unprocessed + in-flight).
  // Early in the phase the bound is far above the sizer's target; it only
  // binds near the end. (Engineering addition on top of Algorithm 1; the
  // paper relies on the input simply running out.)
  const std::uint32_t cap = end_game_cap(ctx, node, sums);
  const std::uint32_t target = std::min(sized, cap);

  BoundSplit split = binder_->bind(node, target);
  span.arg("relative_speed", relative);
  span.arg("sizer_target", sized);
  span.arg("end_game_cap", cap);
  span.arg("bound_bus", static_cast<std::uint64_t>(split.bus.size()));
  if (split.bus.empty()) return std::nullopt;  // file exhausted

  last_launch_epoch_ = sizer_->epoch(node);
  span.arg("epoch", last_launch_epoch_);
  mr::MapLaunch launch;
  launch.bus = std::move(split.bus);
  return launch;
}

void FlexMapScheduler::on_map_dispatch(mr::DriverContext& ctx, TaskId task,
                                       NodeId node) {
  (void)ctx;
  (void)node;
  task_epoch_[task] = last_launch_epoch_;
}

void FlexMapScheduler::on_map_complete(mr::DriverContext& ctx,
                                       const mr::TaskRecord& rec) {
  const auto it = task_epoch_.find(rec.id);
  if (it == task_epoch_.end()) return;
  const std::uint32_t epoch = it->second;
  task_epoch_.erase(it);

  trace_.push_back(SizingTracePoint{rec.node, rec.phase_progress_at_end,
                                    rec.num_bus, rec.input_mib,
                                    rec.productivity()});
  const std::uint32_t unit_before = sizer_->size_unit(rec.node);
  const bool frozen_before = sizer_->frozen(rec.node);
  sizer_->on_task_complete(rec.node, epoch, rec.productivity());
  // Journal sizing commits (unit growth OR a freeze) so a restarted AM
  // resumes the ramp instead of re-climbing from 1 BU.
  if (recover::JobJournal* journal = ctx.journal();
      journal != nullptr && (sizer_->size_unit(rec.node) != unit_before ||
                             sizer_->frozen(rec.node) != frozen_before)) {
    journal->record_scheduler_note(
        {kSizingNoteKind, rec.node, sizer_->size_unit(rec.node),
         sizer_->frozen(rec.node) ? 1u : 0u});
  }
}

void FlexMapScheduler::on_heartbeat(mr::DriverContext& ctx, NodeId node) {
  if (!ctx.node_alive(node)) return;
  if (const auto ips = ctx.observed_ips(node)) {
    speed_trace_.push_back(SpeedTracePoint{ctx.now(), node, *ips});
    monitor_->update(node, *ips);
  }
}

void FlexMapScheduler::on_node_failed(mr::DriverContext& ctx, NodeId node,
                                      const std::vector<BlockUnitId>&) {
  (void)ctx;
  // The binder works straight off the index, so reclaimed BUs need no
  // bookkeeping here; just stop treating the dead node as a speed anchor
  // and recompute reduce quotas if the phase hasn't consumed them yet.
  monitor_->forget(node);
  reduce_quota_.clear();
  reduce_assigned_.clear();
}

void FlexMapScheduler::on_node_recovered(mr::DriverContext& ctx,
                                         NodeId node) {
  (void)ctx;
  monitor_->forget(node);
  sizer_->reset_node(node);
  reduce_quota_.clear();
  reduce_assigned_.clear();
}

FlexMapScheduler::CapacitySums& FlexMapScheduler::capacity_sums(
    const mr::DriverContext& ctx) {
  const std::uint64_t view = ctx.cluster_view_version();
  if (view != 0 && view == sums_.view_version &&
      monitor_->generation() == sums_.monitor_generation) {
    return sums_;
  }
  // Sequential FP sums over nodes: known_sum and the total round
  // differently in any other addition order, so the walks stay in
  // ascending node order. Observed per-container rates; unreported nodes
  // assume the mean.
  std::optional<MiBps> slowest;
  double known_sum = 0.0;
  std::size_t known = 0;
  for (NodeId n = 0; n < ctx.num_nodes(); ++n) {
    const std::optional<MiBps> speed = monitor_->get_speed(n);
    if (!speed) continue;
    if (!slowest || *speed < *slowest) slowest = speed;
    if (!ctx.node_alive(n)) continue;
    known_sum += *speed;
    ++known;
  }
  const double fallback =
      known > 0 ? known_sum / static_cast<double>(known) : 1.0;
  double total = 0.0;
  for (NodeId n = 0; n < ctx.num_nodes(); ++n) {
    if (!ctx.node_alive(n)) continue;
    total += monitor_->get_speed(n).value_or(fallback) *
             ctx.machine_spec(n).slots;
  }
  sums_ = {monitor_->generation(), view, slowest.value_or(0.0), fallback,
           total, std::nullopt};
  return sums_;
}

std::uint32_t FlexMapScheduler::end_game_cap(const mr::DriverContext& ctx,
                                             NodeId node,
                                             const CapacitySums& sums) const {
  const double own_rate = monitor_->get_speed(node).value_or(sums.fallback);
  FLEXMR_ASSERT(sums.total > 0.0);

  // Cap at this container's capacity-proportional share of the unassigned
  // pool: if every container took exactly its share they would all finish
  // together, so exceeding it risks running past the drain point. The
  // bound loosens nothing early (the sizer's target is far below it) and
  // tightens automatically as the pool empties.
  const double share_bus = static_cast<double>(ctx.unassigned_bus()) *
                           own_rate / sums.total;
  return share_bus < 1.0
             ? 1u
             : static_cast<std::uint32_t>(std::min(share_bus, 1e9));
}

double FlexMapScheduler::capacity_share(const mr::DriverContext& ctx,
                                        NodeId node) {
  // Machine capacity = observed per-container IPS × container count.
  // Nodes that never reported are assumed average-speed per container.
  if (!ctx.node_alive(node)) return 0.0;
  const CapacitySums& sums = capacity_sums(ctx);
  FLEXMR_ASSERT(sums.total > 0.0);
  return monitor_->get_speed(node).value_or(sums.fallback) *
         ctx.machine_spec(node).slots / sums.total;
}

double FlexMapScheduler::max_capacity_share(const mr::DriverContext& ctx) {
  CapacitySums& sums = capacity_sums(ctx);
  if (!sums.max_share) {
    double max_share = 0.0;
    for (NodeId n = 0; n < ctx.num_nodes(); ++n) {
      max_share = std::max(max_share, capacity_share(ctx, n));
    }
    sums.max_share = max_share;
  }
  return *sums.max_share;
}

bool FlexMapScheduler::accept_reducer(mr::DriverContext& ctx, NodeId node) {
  if (!options_.reduce_bias) return true;

  // The paper's placement loop — draw a node uniformly, accept with
  // probability c_i^2, redraw otherwise — induces a multinomial over nodes
  // with p_i ∝ c_i^2. Our dispatch is offer-driven (a slot, not the AM,
  // initiates), so repeated acceptance draws per slot would wash the bias
  // out over time; instead we materialize the same distribution as
  // per-node quotas (largest-remainder rounding of R·c_i²/Σc_j²) computed
  // once at reduce-phase start from the speeds the monitor observed.
  if (reduce_quota_.empty()) {
    const std::uint32_t total = ctx.total_reducers();
    FLEXMR_ASSERT(total > 0);
    std::vector<double> weight(ctx.num_nodes());
    double weight_sum = 0.0;
    const double max_share = max_capacity_share(ctx);
    FLEXMR_ASSERT(max_share > 0.0);
    for (NodeId n = 0; n < ctx.num_nodes(); ++n) {
      const double c = capacity_share(ctx, n) / max_share;
      weight[n] = c * c;
      weight_sum += weight[n];
    }
    reduce_quota_.assign(ctx.num_nodes(), 0);
    reduce_assigned_.assign(ctx.num_nodes(), 0);
    std::vector<std::pair<double, NodeId>> remainders;
    std::uint32_t assigned = 0;
    for (NodeId n = 0; n < ctx.num_nodes(); ++n) {
      const double exact = total * weight[n] / weight_sum;
      reduce_quota_[n] = static_cast<std::uint32_t>(exact);
      assigned += reduce_quota_[n];
      remainders.emplace_back(exact - std::floor(exact), n);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (std::size_t i = 0; assigned < total; ++i) {
      ++reduce_quota_[remainders[i % remainders.size()].second];
      ++assigned;
    }
  }
  if (reduce_assigned_[node] >= reduce_quota_[node]) return false;

  // Size guard: a key-skewed job's outsized head reducer must not land on
  // a slow node merely because that node was offered first — its compute
  // time would dominate the phase. Slow nodes only take reducers around
  // the mean size; fast nodes take anything.
  const double mean = ctx.mean_reducer_input();
  if (mean > 0.0 && ctx.next_reducer_input() > 1.5 * mean) {
    const double max_share = max_capacity_share(ctx);
    const double c = max_share > 0.0
                         ? capacity_share(ctx, node) / max_share
                         : 1.0;
    if (c < 0.7) return false;
  }

  ++reduce_assigned_[node];
  return true;
}

}  // namespace flexmr::flexmap
