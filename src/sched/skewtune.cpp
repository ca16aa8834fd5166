#include "sched/skewtune.hpp"

#include <algorithm>
#include <functional>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace flexmr::sched {

namespace {

/// Wake times are moved this fraction earlier, far more than the rounding
/// of the time-left arithmetic (a few ulps), so no map wakes late. A wake
/// at `now` stays due. Simulated time is never negative.
constexpr double kWakeMargin = 1e-9;

}  // namespace

void SkewTuneScheduler::on_job_start(mr::DriverContext& ctx) {
  StockHadoopScheduler::on_job_start(ctx);
  chunks_.clear();
  pending_is_mitigation_ = false;
  straggler_ = {};
  wakes_.clear();
}

void SkewTuneScheduler::on_recovery(
    mr::DriverContext& ctx, const recover::RecoveredState& recovered) {
  StockHadoopScheduler::on_recovery(ctx, recovered);
  // The virtual on_job_start re-entered above already cleared chunks_ /
  // pending_is_mitigation_ / straggler_ / wakes_; assert the contract so a
  // future on_job_start refactor cannot silently leak pre-crash plans or
  // what was learned about the old attempt's tasks.
  FLEXMR_ASSERT(chunks_.empty() && !pending_is_mitigation_ &&
                straggler_.map_version == 0 && wakes_.empty());
}

void SkewTuneScheduler::on_map_dispatch(mr::DriverContext& ctx, TaskId task,
                                        NodeId node) {
  (void)node;
  if (pending_is_mitigation_) {
    pending_is_mitigation_ = false;
    return;
  }
  wake_at(ctx.now() + options_.min_runtime_s, task);  // old enough to judge
}

void SkewTuneScheduler::wake_at(SimTime at, TaskId task) {
  wakes_.push_back({at * (1.0 - kWakeMargin), task});
  std::push_heap(wakes_.begin(), wakes_.end(), std::greater<>{});
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
  due_.clear();
  while (!wakes_.empty() && wakes_.front().at <= now) {
    std::pop_heap(wakes_.begin(), wakes_.end(), std::greater<>{});
    due_.push_back(wakes_.back().id);
    wakes_.pop_back();
  }
  std::sort(due_.begin(), due_.end());
  ctx.running_maps_among(due_, running_);
  const double threshold =
      options_.min_benefit_factor * options_.repartition_overhead_s;
  // The strict `>` keeps the *first* maximum in id order.
  TaskId best = kInvalidTask;
  double best_time_left = 0;
  for (const auto& info : running_) {
    if (info.size_mib <= 2 * kBlockUnitMiB) continue;  // nothing to split
    const SimDuration age = now - info.dispatch_time;
    const double rate = info.computing && age >= options_.min_runtime_s
                            ? info.progress / age
                            : 0.0;
    SimTime wake = now;  // due again on the next search
    if (rate > 0) {
      const double time_left = (1.0 - info.progress) / rate;
      // Mitigation must buy more than it costs. With k helpers the tail
      // shrinks to ~time_left/k but every helper pays the repartition
      // overhead; SkewTune's planner approximates this with a fixed
      // factor.
      if (time_left >= threshold) {
        if (time_left > best_time_left) {
          best_time_left = time_left;
          best = info.id;
        }
      } else {
        // Progress never falls, so from here on the time-left is at most
        // (1 - progress) / progress * age: under the threshold until the
        // age reaches threshold / that factor.
        const double factor = (1.0 - info.progress) / info.progress;
        if (factor <= 0) continue;  // fully read: it stays at 0
        wake = info.dispatch_time + threshold / factor;
      }
    }
    wake_at(wake, info.id);
  }
  straggler_ = {now, version, best};
  return best;
}

std::optional<mr::MapLaunch> SkewTuneScheduler::serve_chunk(
    mr::DriverContext& ctx) {
  hdfs::BlockLocationIndex& index = ctx.index();
  for (std::size_t i = 0; i < chunks_.size();) {
    auto& chunk = chunks_[i];
    const bool readable =
        std::all_of(chunk.begin(), chunk.end(), [&](BlockUnitId bu) {
          return ctx.block_readable(ctx.layout().bus[bu].block);
        });
    if (!readable) {
      ++i;
      continue;
    }
    // While the chunk waited, a failure may have re-pended its block and
    // the stock path launched the block's free units, these among them.
    std::erase_if(chunk, [&](BlockUnitId bu) { return index.taken(bu); });
    const auto at = chunks_.begin() + static_cast<std::ptrdiff_t>(i);
    if (chunk.empty()) {
      chunks_.erase(at);
      continue;
    }
    mr::MapLaunch launch;
    launch.bus = std::move(chunk);
    chunks_.erase(at);
    index.take_units(launch.bus);
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
