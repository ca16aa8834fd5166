// Stock Hadoop map scheduling: one map per HDFS block, static input
// binding, locality-first dispatch, and (optionally) LATE speculative
// execution — the scheduler YARN ships and the paper's primary baseline.
//
// Dispatch order on a free slot (Hadoop's node-local → off-switch order,
// collapsed to two levels on a flat topology):
//   1. the lowest-id pending block with a replica on the node,
//   1b. under rs(k,m) striping: the lowest-id pending block with a *part*
//       on the node ("partial-local" — the node serves 1/k of the stripe
//       from its own disk, so it still beats a fully remote read),
//   2. the lowest-id pending block anywhere (remote execution),
//   3. if speculation is enabled and no blocks are pending: a LATE
//      speculative copy of the slowest-looking running task.
//
// LATE (Zaharia et al., OSDI'08), as summarized in the paper §II-B:
//   * estimate time-left = (1 - progress) / progress_rate,
//   * only speculate tasks whose progress rate is below SlowTaskThreshold
//     (a percentile of running tasks' rates),
//   * never launch speculative copies on slow nodes (observed IPS below
//     SlowNodeThreshold percentile),
//   * cap concurrently running speculative copies at SpeculativeCap
//     (a fraction of cluster slots),
//   * copy the candidate with the largest time-left.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mr/scheduler.hpp"

namespace flexmr::sched {

struct LateParams {
  double speculative_cap = 0.1;      ///< Fraction of total slots.
  double slow_task_percentile = 0.25;
  double slow_node_percentile = 0.25;
  /// Don't judge brand-new tasks. Real YARN speculators need statistics
  /// to warm up and rarely fire in a task's first tens of seconds; the
  /// paper leans on exactly this sluggishness ("may also miss the best
  /// timing for load balancing", §IV-E).
  SimDuration min_runtime_s = 15.0;
  double max_progress = 0.9;         ///< Too late to bother past this.
};

struct StockOptions {
  bool speculation = true;
  /// Delay scheduling (Zaharia et al., EuroSys'10 — shipped in Hadoop's
  /// fair scheduler): a slot with no node-local pending block waits this
  /// long before accepting a remote block. 0 disables the wait.
  SimDuration locality_wait_s = 0.0;
  LateParams late;
};

class StockHadoopScheduler : public mr::Scheduler {
 public:
  explicit StockHadoopScheduler(StockOptions options = {})
      : options_(options) {}

  std::string name() const override {
    return options_.speculation ? "hadoop" : "hadoop-nospec";
  }

  void on_job_start(mr::DriverContext& ctx) override;
  /// Rebuilds the pending-block pool on a restarted AM: blocks whose every
  /// BU was replayed from the journal (already taken in the context's
  /// index) are done, not pending; partially-committed blocks stay pending
  /// and relaunch covering just the free remainder.
  void on_recovery(mr::DriverContext& ctx,
                   const recover::RecoveredState& recovered) override;
  std::optional<mr::MapLaunch> on_slot_free(mr::DriverContext& ctx,
                                            NodeId node) override;
  /// Re-pends every block whose BUs all returned to the pool after a node
  /// failure (one map per block: a block re-runs whole or not at all).
  void on_node_failed(mr::DriverContext& ctx, NodeId node,
                      const std::vector<BlockUnitId>& reclaimed) override;
  /// Same re-pend for a single failed attempt (transient JVM/launch
  /// failure): its whole block returns to the pending pool for retry.
  void on_attempt_failed(mr::DriverContext& ctx, NodeId node,
                         const std::vector<BlockUnitId>& reclaimed) override;
  /// A rejoined node's local blocks become attractive again: rewind the
  /// dispatch cursors so locality-first scanning reconsiders them (and so
  /// the global scan revisits pending blocks it skipped as unreadable).
  void on_node_recovered(mr::DriverContext& ctx, NodeId node) override;
  /// A re-replicated copy of `block` landed on `node`: the block joins the
  /// node's local list so locality-first dispatch can use the new copy.
  void on_block_rehosted(mr::DriverContext& ctx, std::uint32_t block,
                         NodeId node) override;

 protected:
  /// Whether block `block_id` currently has a launched map bound to it.
  bool block_launched(std::uint32_t block_id) const {
    return block_launched_[block_id] != 0;
  }
  /// Attempts rules 1–2 (pending blocks). Shared with SkewTune.
  std::optional<mr::MapLaunch> launch_pending_block(mr::DriverContext& ctx,
                                                    NodeId node);

  /// Rule 3: LATE. Returns a speculative launch or nullopt.
  std::optional<mr::MapLaunch> late_speculate(mr::DriverContext& ctx,
                                              NodeId node);

 private:
  /// Shared failure cleanup: re-pend fully-freed blocks and rewind the
  /// scan cursors (re-pended blocks may sit behind them).
  void repend_reclaimed(mr::DriverContext& ctx,
                        const std::vector<BlockUnitId>& reclaimed);

  /// Rebuilds late_'s per-(now, map version) part from the running maps
  /// at least min_runtime_s old.
  void build_late_candidates(mr::DriverContext& ctx);

  /// What LATE derives from the driver, cached on the context's state
  /// versions: an offer sweep at one instant builds it once instead of
  /// once per offer. A version of 0 (untracked) rebuilds on every call.
  struct LateCandidate {
    TaskId id;
    NodeId node;
    double rate;
    double time_left;
  };
  struct LateCache {
    /// SlowNodeThreshold, per cluster-view version; nullopt while no
    /// node has reported.
    std::uint64_t view_version = 0;
    std::optional<MiBps> slow_node_ips;
    /// Per (now, map version), in snapshot order: every candidate
    /// regardless of the offered node, which each offer filters out.
    SimTime now = 0;
    std::uint64_t map_version = 0;
    std::size_t speculating = 0;  ///< Running speculative copies.
    std::vector<LateCandidate> candidates;
    /// Scratch: the maps old enough to judge, and per-offer rates.
    std::vector<mr::RunningMapInfo> running;
    std::vector<double> rates;
  };

  StockOptions options_;
  LateCache late_;
  std::vector<char> block_launched_;
  std::vector<std::vector<std::uint32_t>> node_local_blocks_;
  /// rs(k,m) only: blocks with a part on the node (empty lists under
  /// replication, so the partial-local tier costs nothing there).
  std::vector<std::vector<std::uint32_t>> node_partial_blocks_;
  std::vector<std::size_t> node_cursor_;
  std::vector<std::size_t> partial_cursor_;
  std::size_t pending_count_ = 0;
  std::uint32_t global_cursor_ = 0;
  /// Delay scheduling: when each node started waiting for a local block
  /// (negative = not waiting).
  std::vector<SimTime> remote_wait_since_;
};

}  // namespace flexmr::sched
