// SkewTune (Kwon et al., SIGMOD'12) reimplemented on the simulator, as the
// paper uses it: a skew-mitigation baseline that, when slots idle at the
// tail of the map phase, stops the straggler with the greatest estimated
// time-left and repartitions its *unprocessed* input evenly across the idle
// slots ("SkewTune parallelizes a straggler task by repartitioning and
// redistributing its input data across all available nodes. It assumes all
// slave nodes have the same processing capability." — §IV-A).
//
// Modeled costs, matching the mechanism's real overheads:
//   * repartitioning is planned by scanning the remaining input; every
//     mitigation task pays `repartition_overhead_s` extra startup,
//   * mitigation chunks are usually remote to their new host, so they pay
//     the driver's normal remote-read penalty,
//   * the straggler's processed prefix is kept (SkewTune's operator-level
//     split), surfacing as a PartialCompleted task.
//
// The homogeneity assumption shows up as *equal* chunk sizes — exactly why
// the paper finds SkewTune loses to FlexMap when slow nodes are plentiful.
#pragma once

#include <deque>
#include <vector>

#include "sched/stock.hpp"

namespace flexmr::sched {

struct SkewTuneOptions {
  /// Extra startup charged to every mitigation task (scan + plan + move).
  SimDuration repartition_overhead_s = 10.0;
  /// Only mitigate stragglers whose estimated time-left exceeds this
  /// multiple of the repartition overhead (SkewTune's "is it worth it").
  double min_benefit_factor = 2.0;
  /// Don't judge tasks younger than this.
  SimDuration min_runtime_s = 5.0;
};

class SkewTuneScheduler final : public StockHadoopScheduler {
 public:
  explicit SkewTuneScheduler(SkewTuneOptions options = {})
      : StockHadoopScheduler(StockOptions{.speculation = false, .late = {}}),
        options_(options) {}

  std::string name() const override { return "skewtune"; }

  void on_job_start(mr::DriverContext& ctx) override;
  /// Mitigation state (planned chunks, the wake heap) is transient policy
  /// state deliberately NOT journaled: a restarted AM re-plans mitigation
  /// from live observation. The base recovery rebuilds the pending pool;
  /// on_job_start (virtually re-entered by it) clears the queues. Killed mitigation chunks simply re-pend as part of their
  /// block's free remainder.
  void on_recovery(mr::DriverContext& ctx,
                   const recover::RecoveredState& recovered) override;
  std::optional<mr::MapLaunch> on_slot_free(mr::DriverContext& ctx,
                                            NodeId node) override;
  void on_map_dispatch(mr::DriverContext& ctx, TaskId task,
                       NodeId node) override;
  /// Whole blocks re-pend via the base class; BUs from partially-covered
  /// blocks (a mitigated straggler's prefix died) become one repair chunk.
  void on_node_failed(mr::DriverContext& ctx, NodeId node,
                      const std::vector<BlockUnitId>& reclaimed) override;
  /// Same split for a transient attempt failure: whole blocks re-pend,
  /// loose BUs (a failed mitigation chunk) re-enter the chunk queue.
  void on_attempt_failed(mr::DriverContext& ctx, NodeId node,
                         const std::vector<BlockUnitId>& reclaimed) override;

 private:
  /// Picks the straggler to mitigate; returns kInvalidTask if none is
  /// worth it. Reads only the maps whose wake time has come. The answer is
  /// cached per (now, map version): its only other input, the wake heap,
  /// gains entries right after a dispatch, which moves the version.
  TaskId find_straggler(mr::DriverContext& ctx);

  /// Makes `task` due at `at`, moved earlier by a rounding margin.
  void wake_at(SimTime at, TaskId task);

  /// Serves the first chunk whose input blocks are still readable (a chunk
  /// of a replica-less block stays queued until a holder rejoins), less
  /// any units another task took meanwhile; a chunk left empty is dropped.
  std::optional<mr::MapLaunch> serve_chunk(mr::DriverContext& ctx);

  SkewTuneOptions options_;
  std::deque<std::vector<BlockUnitId>> chunks_;  ///< Planned mitigation work.
  /// The launch just returned is a mitigation chunk. Its task is never
  /// tracked, so never re-mitigated (SkewTune splits a straggler once;
  /// recursively splitting its own repair tasks would pay the repartition
  /// overhead over and over).
  bool pending_is_mitigation_ = false;
  struct StragglerCache {
    SimTime now = 0;
    std::uint64_t map_version = 0;  ///< 0: nothing cached.
    TaskId task = kInvalidTask;
  };
  StragglerCache straggler_;
  /// A tracked map and the earliest time its time-left could pass the
  /// benefit threshold.
  struct Wake {
    SimTime at;
    TaskId id;
    bool operator>(const Wake& other) const { return at > other.at; }
  };
  /// Min-heap on `at` of the non-mitigation maps dispatched and not yet
  /// seen finished or too small to split (DESIGN.md §8, "Wake-time
  /// straggler search").
  std::vector<Wake> wakes_;
  /// find_straggler's scratch: the ids due, ascending, and their maps.
  std::vector<TaskId> due_;
  std::vector<mr::RunningMapInfo> running_;
};

}  // namespace flexmr::sched
