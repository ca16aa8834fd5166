// Scheduler interface: the policy seam where stock Hadoop, LATE, SkewTune
// and FlexMap plug in.
//
// The JobDriver (playing YARN AppMaster + MRAppMaster JobImpl) owns all
// mechanism — task state machines, progress integration, BU accounting,
// metrics. A Scheduler only makes decisions:
//   * on_slot_free: a container is available on `node`; return what map
//     task (if any) to dispatch there,
//   * on_heartbeat / on_map_complete: observe progress,
//   * place_reducer: choose the node for each reduce task.
//
// Schedulers observe the cluster ONLY through this context (observed IPS,
// static specs, running-task progress) — never through ground-truth
// machine multipliers — mirroring what a real AM can know.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/units.hpp"
#include "hdfs/block_index.hpp"
#include "mr/job.hpp"
#include "mr/metrics.hpp"
#include "mr/params.hpp"
#include "recover/journal.hpp"

namespace flexmr::obs {
class EventTracer;
}

namespace flexmr {
class LaneSet;
}

namespace flexmr::mr {

/// Snapshot of one running (or starting) map task, as visible to an AM.
struct RunningMapInfo {
  TaskId id = kInvalidTask;
  NodeId node = kInvalidNode;
  MiB size_mib = 0;
  MiB bytes_read = 0;          ///< HDFS_BYTES_READ so far.
  double progress = 0;         ///< bytes_read / size_mib.
  SimTime dispatch_time = 0;
  bool computing = false;      ///< Past container/JVM startup.
  bool speculative = false;
  bool has_twin = false;       ///< A speculative copy of this task exists.
};

/// A map dispatch decision. Exactly one of the two forms:
///  * data task: `bus` non-empty (taken from the context's index),
///  * speculative copy: `speculative_of` set, `bus` empty.
struct MapLaunch {
  std::vector<BlockUnitId> bus;
  TaskId speculative_of = kInvalidTask;
  /// Extra pre-compute latency (SkewTune charges repartitioning here).
  SimDuration extra_startup_s = 0;

  bool is_speculative() const { return speculative_of != kInvalidTask; }
};

/// The driver-side services a scheduler may use. Implemented by JobDriver.
class DriverContext {
 public:
  virtual ~DriverContext() = default;

  virtual SimTime now() const = 0;
  virtual const JobSpec& job() const = 0;
  virtual const SimParams& params() const = 0;
  virtual const hdfs::FileLayout& layout() const = 0;

  /// Unprocessed-BU bookkeeping; taking BUs here commits them to the task
  /// the scheduler is about to return.
  virtual hdfs::BlockLocationIndex& index() = 0;

  virtual std::uint32_t num_nodes() const = 0;
  /// Static machine description (slot count, model). Observable: an AM
  /// knows the hardware inventory but not current contention.
  virtual const cluster::MachineSpec& machine_spec(NodeId node) const = 0;
  virtual std::uint32_t free_slots(NodeId node) const = 0;
  virtual std::uint32_t total_free_slots() const = 0;
  virtual std::uint32_t total_slots() const = 0;

  virtual std::vector<RunningMapInfo> running_maps() const = 0;

  /// The running maps at least `min_age` old (now() - dispatch_time >=
  /// min_age), written into the caller's `out` in running_maps() order.
  /// Returns the number of running speculative copies of any age. LATE
  /// reads through this on every completion-triggered offer into buffers
  /// of its own; JobDriver's override stops at the first map younger than
  /// `min_age`. The default derives both answers from
  /// running_maps(), so a forwarding context that does not forward this
  /// stays correct.
  virtual std::size_t aged_running_maps(
      SimDuration min_age, std::vector<RunningMapInfo>& out) const {
    const SimTime t = now();
    std::size_t speculating = 0;
    out.clear();
    for (const RunningMapInfo& info : running_maps()) {
      if (info.speculative) ++speculating;
      if (t - info.dispatch_time >= min_age) out.push_back(info);
    }
    return speculating;
  }

  /// The running maps among `ids` (ascending task ids), written into the
  /// caller's `out` in running_maps() order; finished ids are skipped.
  /// SkewTune reads only the maps whose time-left could have reached its
  /// benefit threshold through this. JobDriver's override costs
  /// O(ids.size()); the default filters one running_maps() read, so a
  /// forwarding context that does not forward this stays correct.
  virtual void running_maps_among(const std::vector<TaskId>& ids,
                                  std::vector<RunningMapInfo>& out) const {
    out.clear();
    for (const RunningMapInfo& info : running_maps()) {
      if (std::binary_search(ids.begin(), ids.end(), info.id)) {
        out.push_back(info);
      }
    }
  }

  /// State versions a policy may key cached derivations on. The map
  /// version changes whenever running_maps() (or the reads derived from
  /// it) could return different entries at the same now(); the cluster-view
  /// version whenever observed_ips() or node_alive() could answer
  /// differently. 0 means "not tracked: recompute" — the default, so a
  /// forwarding context that does not forward them stays correct, only
  /// slower.
  virtual std::uint64_t map_state_version() const { return 0; }
  virtual std::uint64_t cluster_view_version() const { return 0; }

  /// Always null; kept only because perfbench/seams.hpp overrides it.
  virtual LaneSet* lane_set() const { return nullptr; }

  /// Observed input-processing speed of `node` (Eq. 3): the average IPS
  /// reported by the node's containers in the most recent heartbeat round,
  /// falling back to the last known value when the node is idle. nullopt
  /// until the node has reported at least once.
  virtual std::optional<MiBps> observed_ips(NodeId node) const = 0;

  /// Fraction of the job's BUs already processed.
  virtual double map_phase_progress() const = 0;
  virtual std::size_t total_bus() const = 0;
  virtual std::size_t processed_bus() const = 0;
  /// BUs neither processed nor bound to a running task (== index()'s
  /// unprocessed count, readable from const observers).
  virtual std::size_t unassigned_bus() const = 0;

  /// Reduce-task count of this job; 0 until the reduce phase is planned
  /// (at map-phase end).
  virtual std::uint32_t total_reducers() const = 0;

  /// Input size of the reduce task the next accepted offer would receive
  /// (0 when none is pending), and the mean reducer input. Key-skewed
  /// jobs have a heavy head; placement policies use the ratio to keep
  /// outsized reducers off slow nodes.
  virtual MiB next_reducer_input() const = 0;
  virtual MiB mean_reducer_input() const = 0;

  /// False once `node` has failed (failure injection); a dead node is
  /// never offered and holds no unprocessed replicas worth chasing.
  /// A rejoined node is alive again.
  virtual bool node_alive(NodeId node) const = 0;

  /// True while the AM has blacklisted `node` (too many failed attempts
  /// there). Blacklisted nodes are not offered; schedulers can use this
  /// to avoid planning work for them. Default false: the base simulator
  /// has no blacklist.
  virtual bool node_blacklisted(NodeId node) const {
    (void)node;
    return false;
  }

  /// True while `block` has at least one live replica. A block whose every
  /// holder is down cannot be read — schedulers must not bind its BUs (the
  /// driver is either aborting with DataLossError or waiting for a planned
  /// rejoin). Default true: without fault injection all replicas live.
  virtual bool block_readable(std::uint32_t block) const {
    (void)block;
    return true;
  }

  /// The run's tracing sink, or nullptr when tracing is disabled (the
  /// default). Schedulers may emit spans/instants describing their
  /// decisions (sizing inputs, speculation verdicts, mitigation plans);
  /// they must only *write* to it — a tracer is never an input to policy.
  virtual obs::EventTracer* tracer() const { return nullptr; }

  /// The job's AM-recovery journal, or nullptr (the default) when AM
  /// crash recovery is not armed. Schedulers append opaque SchedulerNotes
  /// at their own commit points (FlexMap journals sizing-unit changes);
  /// after an AM restart the notes come back through on_recovery.
  virtual recover::JobJournal* journal() const { return nullptr; }

  /// Stops a running map task (SkewTune mitigation). Its consumed BU
  /// prefix is credited as PartialCompleted; the unread suffix is returned
  /// AND put back into the index for re-taking. The task's slot is freed
  /// (re-offered on the next offer cycle, not synchronously).
  virtual std::vector<BlockUnitId> kill_and_reclaim(TaskId task) = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Called once before the first offer.
  virtual void on_job_start(DriverContext& ctx) { (void)ctx; }

  /// Called INSTEAD of on_job_start on a restarted AM attempt. The driver
  /// has already replayed `recovered` into its own state (committed
  /// maps/reduces, attempt budgets, blacklist); the scheduler rebuilds its
  /// policy state to match — the default rebuilds from scratch via
  /// on_job_start, which is correct for policies whose bookkeeping is
  /// derivable from the context (pending work, progress). Schedulers with
  /// journaled notes override this to additionally replay them.
  virtual void on_recovery(DriverContext& ctx,
                           const recover::RecoveredState& recovered) {
    (void)recovered;
    on_job_start(ctx);
  }

  /// A free container on `node`: return a dispatch or nullopt to decline.
  virtual std::optional<MapLaunch> on_slot_free(DriverContext& ctx,
                                                NodeId node) = 0;

  /// The driver assigned `task` to the launch just returned from
  /// on_slot_free (lets a scheduler key per-task state by TaskId).
  virtual void on_map_dispatch(DriverContext& ctx, TaskId task, NodeId node) {
    (void)ctx;
    (void)task;
    (void)node;
  }

  /// A map task finished (status Completed or PartialCompleted).
  virtual void on_map_complete(DriverContext& ctx, const TaskRecord& rec) {
    (void)ctx;
    (void)rec;
  }

  /// Heartbeat round for `node` just updated observed_ips(node).
  virtual void on_heartbeat(DriverContext& ctx, NodeId node) {
    (void)ctx;
    (void)node;
  }

  /// `node` failed. Its running tasks were killed, and `reclaimed` BUs —
  /// from those tasks plus any completed maps whose (unconsumed) output
  /// lived there — have been returned to the context's index. A scheduler
  /// that keeps its own pending-work bookkeeping must fold them back in.
  virtual void on_node_failed(DriverContext& ctx, NodeId node,
                              const std::vector<BlockUnitId>& reclaimed) {
    (void)ctx;
    (void)node;
    (void)reclaimed;
  }

  /// A single map attempt on `node` died (container-launch failure or
  /// transient JVM crash); the node itself is still alive. `reclaimed`
  /// BUs were returned to the index and will be retried (up to
  /// max_attempts). Like on_node_failed, bookkeeping schedulers must
  /// fold them back into their pending-work structures.
  virtual void on_attempt_failed(DriverContext& ctx, NodeId node,
                                 const std::vector<BlockUnitId>& reclaimed) {
    (void)ctx;
    (void)node;
    (void)reclaimed;
  }

  /// A previously-failed `node` re-registered with the RM: its slots are
  /// restored and it is about to be offered again. Any speed estimate or
  /// per-node pacing state from before the crash belongs to the old
  /// incarnation and should be discarded.
  virtual void on_node_recovered(DriverContext& ctx, NodeId node) {
    (void)ctx;
    (void)node;
  }

  /// The NameNode's re-replication pipeline landed a copy of `block` on
  /// `node`: the block's unprocessed BUs just joined that node's local
  /// pool (already reflected in the context's index). Schedulers that
  /// precompute node→block locality must fold the new replica in.
  virtual void on_block_rehosted(DriverContext& ctx, std::uint32_t block,
                                 NodeId node) {
    (void)ctx;
    (void)block;
    (void)node;
  }

  /// During the reduce phase a container freed on `node` is offered for
  /// the next pending reduce task; return false to leave the slot idle
  /// (it will be re-offered on later cluster events / heartbeats).
  /// Stock Hadoop accepts everywhere — reducers flow to whichever
  /// container frees first. FlexMap overrides this with the paper's
  /// c_i^2 acceptance sampling (§III-F).
  virtual bool accept_reducer(DriverContext& ctx, NodeId node) {
    (void)ctx;
    (void)node;
    return true;
  }
};

}  // namespace flexmr::mr
