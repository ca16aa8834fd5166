#include "sched/skewtune.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace flexmr::sched {

void SkewTuneScheduler::on_job_start(mr::DriverContext& ctx) {
  StockHadoopScheduler::on_job_start(ctx);
  chunks_.clear();
  mitigation_task_.clear();
  pending_is_mitigation_ = false;
  straggler_ = {};
}

void SkewTuneScheduler::on_recovery(
    mr::DriverContext& ctx, const recover::RecoveredState& recovered) {
  StockHadoopScheduler::on_recovery(ctx, recovered);
  // The virtual on_job_start re-entered above already cleared chunks_ /
  // mitigation_task_ / pending_is_mitigation_ / straggler_; assert the
  // contract so a future on_job_start refactor cannot silently leak
  // pre-crash plans or a cached answer about the old attempt's tasks.
  FLEXMR_ASSERT(chunks_.empty() && mitigation_task_.empty() &&
                !pending_is_mitigation_ &&
                straggler_.map_version == 0);
}

void SkewTuneScheduler::on_map_dispatch(mr::DriverContext& ctx, TaskId task,
                                        NodeId node) {
  (void)ctx;
  (void)node;
  if (pending_is_mitigation_) {
    if (task >= mitigation_task_.size()) mitigation_task_.resize(task + 1, 0);
    mitigation_task_[task] = 1;
    pending_is_mitigation_ = false;
  }
}

void SkewTuneScheduler::on_node_failed(
    mr::DriverContext& ctx, NodeId node,
    const std::vector<BlockUnitId>& reclaimed) {
  StockHadoopScheduler::on_node_failed(ctx, node, reclaimed);
  // BUs whose parent block still has launched siblings cannot be
  // re-pended as a block; hand them to the mitigation queue instead.
  std::vector<BlockUnitId> loose;
  for (const BlockUnitId bu : reclaimed) {
    if (block_launched(ctx.layout().bus[bu].block)) loose.push_back(bu);
  }
  if (!loose.empty()) chunks_.push_back(std::move(loose));
}

void SkewTuneScheduler::on_attempt_failed(
    mr::DriverContext& ctx, NodeId node,
    const std::vector<BlockUnitId>& reclaimed) {
  StockHadoopScheduler::on_attempt_failed(ctx, node, reclaimed);
  std::vector<BlockUnitId> loose;
  for (const BlockUnitId bu : reclaimed) {
    if (block_launched(ctx.layout().bus[bu].block)) loose.push_back(bu);
  }
  if (!loose.empty()) chunks_.push_back(std::move(loose));
}

TaskId SkewTuneScheduler::find_straggler(mr::DriverContext& ctx) {
  // Runs on every idle offer once input drains; within one offer sweep
  // the answer comes from the cache.
  const SimTime now = ctx.now();
  const std::uint64_t version = ctx.map_state_version();
  if (version != 0 && version == straggler_.map_version &&
      now == straggler_.now) {
    return straggler_.task;
  }
  FLEXMR_PROF_SCOPE("sched/skewtune_argmax");
  ctx.aged_running_maps(options_.min_runtime_s, running_);
  // The strict `>` keeps the *first* maximum in snapshot order.
  TaskId best = kInvalidTask;
  double best_time_left = 0;
  for (const auto& info : running_) {
    if (!info.computing) continue;
    if (info.id < mitigation_task_.size() && mitigation_task_[info.id]) {
      continue;
    }
    if (info.size_mib <= 2 * kBlockUnitMiB) continue;  // nothing to split
    const double rate = info.progress / (now - info.dispatch_time);
    if (rate <= 0) continue;
    const double time_left = (1.0 - info.progress) / rate;
    // Mitigation must buy more than it costs. With k helpers the tail
    // shrinks to ~time_left/k but every helper pays the repartition
    // overhead; SkewTune's planner approximates this with a fixed factor.
    if (time_left <
        options_.min_benefit_factor * options_.repartition_overhead_s) {
      continue;
    }
    if (time_left > best_time_left) {
      best_time_left = time_left;
      best = info.id;
    }
  }
  straggler_ = {now, version, best};
  return best;
}

std::optional<mr::MapLaunch> SkewTuneScheduler::serve_chunk(
    mr::DriverContext& ctx) {
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    auto& chunk = chunks_[i];
    const bool readable =
        std::all_of(chunk.begin(), chunk.end(), [&](BlockUnitId bu) {
          return ctx.block_readable(ctx.layout().bus[bu].block);
        });
    if (!readable) continue;
    mr::MapLaunch launch;
    launch.bus = std::move(chunk);
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(i));
    ctx.index().take_units(launch.bus);
    launch.extra_startup_s = options_.repartition_overhead_s;
    pending_is_mitigation_ = true;
    return launch;
  }
  return std::nullopt;
}

std::optional<mr::MapLaunch> SkewTuneScheduler::on_slot_free(
    mr::DriverContext& ctx, NodeId node) {
  // Normal Hadoop dispatch while input remains.
  if (auto launch = launch_pending_block(ctx, node)) return launch;

  // Serve an already-planned mitigation chunk.
  if (auto launch = serve_chunk(ctx)) return launch;

  // Idle slot, no pending work: look for a straggler worth splitting.
  const TaskId straggler = find_straggler(ctx);
  if (straggler == kInvalidTask) return std::nullopt;

  std::vector<BlockUnitId> remaining = ctx.kill_and_reclaim(straggler);
  if (remaining.empty()) return std::nullopt;

  // Partition the remainder into equal chunks, one per currently-free slot
  // plus this one (the homogeneity assumption: every helper gets the same
  // share regardless of its actual speed).
  const std::size_t helpers =
      std::max<std::size_t>(1, ctx.total_free_slots() + 1);
  const std::size_t chunk_size =
      (remaining.size() + helpers - 1) / helpers;
  for (std::size_t begin = 0; begin < remaining.size();
       begin += chunk_size) {
    const std::size_t end = std::min(begin + chunk_size, remaining.size());
    chunks_.emplace_back(
        remaining.begin() + static_cast<std::ptrdiff_t>(begin),
        remaining.begin() + static_cast<std::ptrdiff_t>(end));
  }

  FLEXMR_LOG(Debug, "sched") << "skewtune repartition: straggler=" << straggler
                             << " reclaimed_bus=" << remaining.size()
                             << " helpers=" << helpers << " at t=" << ctx.now();
  if (obs::EventTracer* tracer = ctx.tracer()) {
    tracer->instant(
        {obs::node_pid(node), 0}, "skewtune-repartition", "sched", ctx.now(),
        {{"straggler", straggler},
         {"reclaimed_bus", static_cast<std::uint64_t>(remaining.size())},
         {"helpers", static_cast<std::uint64_t>(helpers)},
         {"chunk_bus", static_cast<std::uint64_t>(chunk_size)}});
  }
  return serve_chunk(ctx);
}

}  // namespace flexmr::sched
