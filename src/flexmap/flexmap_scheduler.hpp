// FlexMapScheduler: the paper's elastic map execution engine, assembled
// from its four components (architecture of Fig. 4):
//
//   SpeedMonitor   — per-node IPS from heartbeats (Eq. 3),
//   DynamicSizer   — Algorithm 1 (vertical + horizontal scaling),
//   LateTaskBinder — builds the n-BU split from node-local BUs when a
//                    container is granted (MBE + LTB),
//   BiasedReducePlacer — c_i^2 reduce dispatch (§III-F).
//
// On every container offer the scheduler asks the sizer for the node's
// current task size, binds that many BUs with locality preference, and
// dispatches. Completions feed productivity back into vertical scaling;
// heartbeats feed the speed monitor for horizontal scaling. FlexMap never
// speculates: elasticity replaces backup copies.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flexmap/ltb.hpp"
#include "flexmap/reduce_placer.hpp"
#include "flexmap/sizing.hpp"
#include "flexmap/speed_monitor.hpp"
#include "mr/scheduler.hpp"

namespace flexmr::flexmap {

/// SchedulerNote.kind tag for journaled sizing-unit changes: {a = node,
/// b = size unit in BUs, c = frozen flag}. Absolute values, so replay in
/// commit order is idempotent and last-wins.
inline constexpr std::uint32_t kSizingNoteKind = 0xF1E0;

struct FlexMapOptions {
  SizingOptions sizing;
  bool reduce_bias = true;  ///< Ablation: disable c_i^2 reduce placement.
  /// Keep the learned per-node speeds across jobs (§IV-G extensibility:
  /// iterative workloads like k-means re-run over the same cluster, so
  /// later iterations start with horizontal scaling already calibrated).
  /// Size units still re-ramp: carrying them over would assign the whole
  /// input in the first offer round and forfeit elasticity. Only applies
  /// when the next job runs on a same-sized cluster.
  bool warm_start = false;
};

/// A point in the Fig. 7 trace: one elastic task's size and productivity
/// at the map-phase progress where it completed.
struct SizingTracePoint {
  NodeId node = 0;
  double phase_progress = 0;   ///< 0..1 at task completion.
  std::uint32_t size_bus = 0;
  MiB size_mib = 0;
  double productivity = 0;
};

/// One SpeedMonitor reading: the Eq. 3 round-average IPS a node reported
/// at a heartbeat. The sequence per node is the raw signal horizontal
/// scaling acts on.
struct SpeedTracePoint {
  SimTime time = 0;
  NodeId node = 0;
  MiBps ips = 0;
};

class FlexMapScheduler final : public mr::Scheduler {
 public:
  explicit FlexMapScheduler(FlexMapOptions options = {})
      : options_(options) {}

  std::string name() const override { return "flexmap"; }

  void on_job_start(mr::DriverContext& ctx) override;
  /// Rebuilds from scratch, then replays journaled sizing notes so the
  /// per-node size-unit ramp resumes where the crashed AM left it (speed
  /// estimates are deliberately NOT journaled — the new AM re-observes
  /// them through heartbeats, like a real restarted MRAppMaster).
  void on_recovery(mr::DriverContext& ctx,
                   const recover::RecoveredState& recovered) override;
  std::optional<mr::MapLaunch> on_slot_free(mr::DriverContext& ctx,
                                            NodeId node) override;
  void on_map_dispatch(mr::DriverContext& ctx, TaskId task,
                       NodeId node) override;
  void on_map_complete(mr::DriverContext& ctx,
                       const mr::TaskRecord& rec) override;
  void on_heartbeat(mr::DriverContext& ctx, NodeId node) override;
  void on_node_failed(mr::DriverContext& ctx, NodeId node,
                      const std::vector<BlockUnitId>& reclaimed) override;
  /// A rejoined node is a blank slate: pre-crash speed readings and sizing
  /// state describe the old incarnation, so both restart from scratch and
  /// reduce quotas are recomputed against the new capacity picture.
  void on_node_recovered(mr::DriverContext& ctx, NodeId node) override;
  bool accept_reducer(mr::DriverContext& ctx, NodeId node) override;

  /// Observability for tests and the Fig. 7 bench.
  const SpeedMonitor& speed_monitor() const { return *monitor_; }

  /// Overrides the monitor's estimate for `node` (used by the oracle
  /// variant and by white-box tests). Only valid after on_job_start.
  void set_observed_speed(NodeId node, MiBps ips) {
    monitor_->update(node, ips);
  }
  const DynamicSizer& sizer() const { return *sizer_; }
  const std::vector<SizingTracePoint>& sizing_trace() const {
    return trace_;
  }
  /// Every (time, node, IPS) heartbeat reading fed to the SpeedMonitor
  /// during the last job.
  const std::vector<SpeedTracePoint>& speed_trace() const {
    return speed_trace_;
  }

 private:
  /// What FlexMap derives from the SpeedMonitor's readings — the slowest
  /// speed behind horizontal scaling and the cluster-wide sums behind
  /// end_game_cap and capacity_share — cached per (SpeedMonitor
  /// generation, cluster-view version): they move only on heartbeat rounds
  /// and liveness changes, not per offer.
  struct CapacitySums {
    std::uint64_t monitor_generation = 0;
    std::uint64_t view_version = 0;  ///< 0: nothing cached.
    /// Slowest reading of any node, dead ones included; 0 while no node
    /// has reported (every relative speed is then 1).
    MiBps slowest = 0.0;
    /// Mean known per-container speed; stands in for unreported nodes.
    double fallback = 1.0;
    /// Σ per-container speed × containers over live nodes.
    double total = 0.0;
    /// Largest capacity_share; computed when accept_reducer first asks.
    std::optional<double> max_share;
  };
  CapacitySums& capacity_sums(const mr::DriverContext& ctx);

  /// Node capacity (observed per-container IPS × containers) as a fraction
  /// of total cluster capacity. Unreported nodes assume the mean speed.
  double capacity_share(const mr::DriverContext& ctx, NodeId node);
  double max_capacity_share(const mr::DriverContext& ctx);

  /// Largest task (in BUs) a container on `node` can finish before the
  /// cluster drains the remaining map work.
  std::uint32_t end_game_cap(const mr::DriverContext& ctx, NodeId node,
                             const CapacitySums& sums) const;

  FlexMapOptions options_;
  std::unique_ptr<SpeedMonitor> monitor_;
  std::unique_ptr<DynamicSizer> sizer_;
  std::unique_ptr<LateTaskBinder> binder_;
  std::unordered_map<TaskId, std::uint32_t> task_epoch_;
  std::vector<SizingTracePoint> trace_;
  std::vector<SpeedTracePoint> speed_trace_;
  /// Per-node reducer quotas (multinomial expectation of the paper's c²
  /// sampling), built lazily at reduce-phase start.
  std::vector<std::uint32_t> reduce_quota_;
  std::vector<std::uint32_t> reduce_assigned_;
  /// Size (in BUs) of the launch produced by the current on_slot_free,
  /// consumed by the immediately following on_map_dispatch.
  std::uint32_t last_launch_epoch_ = 0;
  CapacitySums sums_;
};

}  // namespace flexmr::flexmap
