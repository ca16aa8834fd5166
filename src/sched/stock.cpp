#include "sched/stock.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace flexmr::sched {

void StockHadoopScheduler::on_job_start(mr::DriverContext& ctx) {
  const auto& layout = ctx.layout();
  block_launched_.assign(layout.blocks.size(), 0);
  node_local_blocks_.assign(ctx.num_nodes(), {});
  node_partial_blocks_.assign(ctx.num_nodes(), {});
  node_cursor_.assign(ctx.num_nodes(), 0);
  partial_cursor_.assign(ctx.num_nodes(), 0);
  pending_count_ = layout.blocks.size();
  global_cursor_ = 0;
  remote_wait_since_.assign(ctx.num_nodes(), -1.0);
  late_ = {};
  // Under rs(k,m) striping a holder owns one *part*, not the block: no
  // node is fully local, so every holder routes to the partial tier (1b)
  // and the full-local lists stay empty. Replication keeps the old lists
  // and never touches the partial tier.
  const bool erasure = layout.storage.erasure();
  for (const auto& block : layout.blocks) {
    for (const NodeId node : block.replicas) {
      (erasure ? node_partial_blocks_ : node_local_blocks_)[node].push_back(
          block.id);
    }
  }
}

void StockHadoopScheduler::on_recovery(
    mr::DriverContext& ctx, const recover::RecoveredState& recovered) {
  (void)recovered;  // replayed work is read back through the index
  on_job_start(ctx);
  // The driver replayed committed maps before calling us, so their BUs are
  // already taken in the index. A block with no free BU left is finished
  // work — mark it launched so the dispatch scan skips it. Blocks with a
  // free remainder (a partial-credit prefix was committed) stay pending;
  // launch_pending_block relaunches just the remainder.
  const auto& layout = ctx.layout();
  for (const auto& block : layout.blocks) {
    bool any_free = false;
    for (const BlockUnitId bu : block.bus) {
      if (!ctx.index().taken(bu)) {
        any_free = true;
        break;
      }
    }
    if (!any_free) {
      block_launched_[block.id] = 1;
      --pending_count_;
    }
  }
}

std::optional<mr::MapLaunch> StockHadoopScheduler::launch_pending_block(
    mr::DriverContext& ctx, NodeId node) {
  const auto& layout = ctx.layout();

  // A pending block is normally fully unprocessed, but a preempted (or
  // SkewTune-killed) map may have consumed a prefix before its block was
  // re-pended — the relaunched map covers only the free remainder.
  auto free_units = [&](std::uint32_t block_id) {
    std::vector<BlockUnitId> bus;
    for (const BlockUnitId bu : layout.blocks[block_id].bus) {
      if (!ctx.index().taken(bu)) bus.push_back(bu);
    }
    return bus;
  };
  auto make_launch = [&](std::uint32_t block_id,
                         std::vector<BlockUnitId> bus) {
    block_launched_[block_id] = 1;
    --pending_count_;
    ctx.index().take_units(bus);
    mr::MapLaunch launch;
    launch.bus = std::move(bus);
    return launch;
  };

  // 1. Node-local block.
  auto& locals = node_local_blocks_[node];
  auto& cursor = node_cursor_[node];
  while (cursor < locals.size()) {
    const std::uint32_t block_id = locals[cursor];
    if (!block_launched_[block_id]) {
      if (auto bus = free_units(block_id); !bus.empty()) {
        remote_wait_since_[node] = -1.0;
        return make_launch(block_id, std::move(bus));
      }
      // Raced empty (every BU taken since the re-pend): treat as launched.
      block_launched_[block_id] = 1;
      --pending_count_;
    }
    ++cursor;
  }

  // 1b. Partial-local block (rs(k,m) only; the list is empty otherwise).
  //     Holding one live part does not make the stripe readable — the
  //     block still needs k live parts overall — so unlike rule 1 this
  //     scan must consult block_readable.
  auto& partials = node_partial_blocks_[node];
  auto& pcursor = partial_cursor_[node];
  while (pcursor < partials.size()) {
    const std::uint32_t block_id = partials[pcursor];
    if (!block_launched_[block_id] && ctx.block_readable(block_id)) {
      if (auto bus = free_units(block_id); !bus.empty()) {
        remote_wait_since_[node] = -1.0;
        return make_launch(block_id, std::move(bus));
      }
      block_launched_[block_id] = 1;
      --pending_count_;
    }
    ++pcursor;
  }

  // 2. Any pending block (remote execution on an idle node) — after the
  //    delay-scheduling wait, if one is configured.
  if (pending_count_ > 0 && options_.locality_wait_s > 0.0) {
    if (remote_wait_since_[node] < 0.0) {
      remote_wait_since_[node] = ctx.now();
      return std::nullopt;  // start waiting for a local block to free up
    }
    if (ctx.now() - remote_wait_since_[node] < options_.locality_wait_s) {
      return std::nullopt;
    }
  }
  while (global_cursor_ < block_launched_.size()) {
    // Skip pending blocks with no live replica (every holder is down):
    // their data cannot be read until a holder rejoins, at which point
    // on_node_recovered rewinds this cursor.
    if (!block_launched_[global_cursor_] &&
        ctx.block_readable(global_cursor_)) {
      if (auto bus = free_units(global_cursor_); !bus.empty()) {
        remote_wait_since_[node] = -1.0;
        return make_launch(global_cursor_, std::move(bus));
      }
      block_launched_[global_cursor_] = 1;
      --pending_count_;
    }
    ++global_cursor_;
  }
  return std::nullopt;
}

void StockHadoopScheduler::build_late_candidates(mr::DriverContext& ctx) {
  const SimTime now = ctx.now();
  late_.speculating =
      ctx.aged_running_maps(options_.late.min_runtime_s, late_.running);
  late_.candidates.clear();
  // Candidates: running, old enough, unfinished enough, not yet backed up.
  for (const auto& info : late_.running) {
    if (!info.computing || info.speculative || info.has_twin) continue;
    if (info.progress >= options_.late.max_progress) continue;
    const double rate = info.progress / (now - info.dispatch_time);
    if (rate <= 0) continue;
    late_.candidates.push_back(
        {info.id, info.node, rate, (1.0 - info.progress) / rate});
  }
}

std::optional<mr::MapLaunch> StockHadoopScheduler::late_speculate(
    mr::DriverContext& ctx, NodeId node) {
  // The candidate list is rebuilt once per (now, map version) and the node
  // threshold once per cluster-view version; what is left per offer is a
  // pass over the candidates off the offered node.
  FLEXMR_PROF_SCOPE("sched/late_speculate");
  const SimTime now = ctx.now();
  const std::uint64_t maps = ctx.map_state_version();
  if (maps == 0 || maps != late_.map_version || now != late_.now) {
    build_late_candidates(ctx);
    late_.map_version = maps;
    late_.now = now;
  }

  // SpeculativeCap: bound concurrent speculative copies.
  const auto cap = static_cast<std::size_t>(std::ceil(
      options_.late.speculative_cap * ctx.total_slots()));
  if (late_.speculating >= cap) return std::nullopt;

  // SlowNodeThreshold: no backups on nodes that look slow themselves.
  const std::uint64_t view = ctx.cluster_view_version();
  if (view == 0 || view != late_.view_version) {
    std::vector<double> node_speeds;
    for (NodeId n = 0; n < ctx.num_nodes(); ++n) {
      if (const auto ips = ctx.observed_ips(n)) node_speeds.push_back(*ips);
    }
    late_.slow_node_ips.reset();
    if (!node_speeds.empty()) {
      std::sort(node_speeds.begin(), node_speeds.end());
      late_.slow_node_ips = node_speeds[static_cast<std::size_t>(
          options_.late.slow_node_percentile *
          static_cast<double>(node_speeds.size() - 1))];
    }
    late_.view_version = view;
  }
  if (const auto own = ctx.observed_ips(node);
      own && late_.slow_node_ips && *own < *late_.slow_node_ips) {
    return std::nullopt;
  }

  // SlowTaskThreshold: only tasks in the slow tail of progress rates. A
  // copy next to the original is useless, so the offered node's own
  // candidates drop out of both the percentile and the pick.
  auto& rates = late_.rates;
  rates.clear();
  for (const auto& candidate : late_.candidates) {
    if (candidate.node != node) rates.push_back(candidate.rate);
  }
  if (rates.empty()) return std::nullopt;
  const auto rate_idx = static_cast<std::size_t>(
      options_.late.slow_task_percentile *
      static_cast<double>(rates.size() - 1));
  std::nth_element(rates.begin(),
                   rates.begin() + static_cast<std::ptrdiff_t>(rate_idx),
                   rates.end());
  const double slow_rate = rates[rate_idx];

  // The strict `>` keeps the first maximum in snapshot order.
  const LateCandidate* best = nullptr;
  for (const auto& candidate : late_.candidates) {
    if (candidate.node == node || candidate.rate > slow_rate) continue;
    if (!best || candidate.time_left > best->time_left) best = &candidate;
  }
  if (!best) return std::nullopt;

  FLEXMR_LOG(Debug, "sched") << "late speculate: victim=" << best->id
                             << " rate=" << best->rate
                             << " est_time_left_s=" << best->time_left
                             << " at t=" << now;
  if (obs::EventTracer* tracer = ctx.tracer()) {
    tracer->instant({obs::node_pid(node), 0}, "late-speculate", "sched", now,
                    {{"victim", best->id},
                     {"victim_rate", best->rate},
                     {"est_time_left_s", best->time_left},
                     {"slow_rate_threshold", slow_rate}});
  }
  mr::MapLaunch launch;
  launch.speculative_of = best->id;
  return launch;
}

std::optional<mr::MapLaunch> StockHadoopScheduler::on_slot_free(
    mr::DriverContext& ctx, NodeId node) {
  if (auto launch = launch_pending_block(ctx, node)) return launch;
  if (options_.speculation) return late_speculate(ctx, node);
  return std::nullopt;
}

void StockHadoopScheduler::on_node_failed(
    mr::DriverContext& ctx, NodeId node,
    const std::vector<BlockUnitId>& reclaimed) {
  (void)node;
  repend_reclaimed(ctx, reclaimed);
}

void StockHadoopScheduler::on_attempt_failed(
    mr::DriverContext& ctx, NodeId node,
    const std::vector<BlockUnitId>& reclaimed) {
  (void)node;
  repend_reclaimed(ctx, reclaimed);
}

void StockHadoopScheduler::on_node_recovered(mr::DriverContext& ctx,
                                             NodeId node) {
  (void)ctx;
  node_cursor_[node] = 0;
  partial_cursor_[node] = 0;
  global_cursor_ = 0;
  remote_wait_since_[node] = -1.0;
}

void StockHadoopScheduler::on_block_rehosted(mr::DriverContext& ctx,
                                             std::uint32_t block,
                                             NodeId node) {
  // The copy lands at the tail of the node's local (or, for an rs(k,m)
  // reconstructed part, partial-local) list — at or past the node's scan
  // cursor, so the locality scan finds it without a rewind. (A launched
  // block is pushed too: the scan skips it, and it matters again if a
  // failure later re-pends it.)
  (ctx.layout().storage.erasure() ? node_partial_blocks_
                                  : node_local_blocks_)[node]
      .push_back(block);
}

void StockHadoopScheduler::repend_reclaimed(
    mr::DriverContext& ctx, const std::vector<BlockUnitId>& reclaimed) {
  const auto& layout = ctx.layout();
  std::set<std::uint32_t> blocks;
  for (const BlockUnitId bu : reclaimed) {
    blocks.insert(layout.bus[bu].block);
  }
  for (const std::uint32_t block_id : blocks) {
    if (!block_launched_[block_id]) continue;
    // Any free BU re-pends the block: a preempted map may have credited a
    // consumed prefix, so the block can come back partially processed and
    // the relaunch covers just the remainder (see launch_pending_block).
    bool any_free = false;
    for (const BlockUnitId bu : layout.blocks[block_id].bus) {
      if (!ctx.index().taken(bu)) {
        any_free = true;
        break;
      }
    }
    if (any_free) {
      block_launched_[block_id] = 0;
      ++pending_count_;
    }
  }
  // Rewind the scan cursors: re-pended blocks may sit behind them.
  for (auto& cursor : node_cursor_) cursor = 0;
  for (auto& cursor : partial_cursor_) cursor = 0;
  global_cursor_ = 0;
}

}  // namespace flexmr::sched
