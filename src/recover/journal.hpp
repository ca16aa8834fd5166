// JobJournal — the AM's append-only completed-work log, and the replay
// that rebuilds a fresh AppMaster from it.
//
// A real MRAppMaster survives its own death by journaling *committed*
// work to the job-history staging log and replaying it on restart
// (`yarn.app.mapreduce.am.job.recovery.enable`); everything in flight at
// the crash is lost and re-run. This file models exactly that contract,
// in the changelog+snapshot idiom of consensus meta-state stores: the
// driver appends a record at every commit point, a periodic snapshot
// folds the prefix into compact per-task state so the log does not grow
// with job length, and replay = snapshot ∘ tail.
//
// What is journaled (the commit points):
//   * a map commit: task id, node, the exact BU set credited (including
//     partial-credit prefixes from kills/preemptions) and its input size,
//   * a later loss of that map's output (fetch-failure re-execution or
//     host death) — which *removes* the commit again,
//   * the reduce plan (reducer count is auto-sized from *live* slots at
//     shuffle start, so it must be pinned, not recomputed),
//   * a reduce commit: reducer index, node, input size,
//   * attempt-failure charges (per-BU, per-reducer, per-node) so retry
//     budgets and blacklists survive the restart,
//   * fetch-failure reports charged against a committed map,
//   * opaque scheduler notes (e.g. FlexMap sizing-epoch records) replayed
//     through Scheduler::on_recovery.
//
// What is deliberately NOT journaled: in-flight task state (torn down on
// crash, matching MRAppMaster), speculation/mitigation queues (transient
// policy state a new AM rebuilds from observation), node speed estimates,
// and node liveness. Deaths an earlier attempt detected live on in the
// NameNode view the new AM inherits; one no attempt detected is caught by
// heartbeat expiry, or at the node's rejoin, which runs the loss path first
// for a node the view still holds alive.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace flexmr::recover {

/// One committed map attempt as the journal remembers it.
struct CommittedMap {
  TaskId task = kInvalidTask;
  NodeId node = kInvalidNode;
  std::vector<BlockUnitId> bus;  ///< Exact credited BU set, input order.
  MiB size = 0;                  ///< Input actually consumed (partial ok).
  std::uint32_t fetch_reports = 0;  ///< Shuffle-failure reports so far.
};

/// Opaque per-scheduler replay record (FlexMap journals sizing-unit
/// changes as {node, unit, frozen}); the journal stores and returns them
/// without interpretation.
struct SchedulerNote {
  std::uint32_t kind = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Everything a fresh AM needs to resume: the fold of snapshot + log tail.
struct RecoveredState {
  /// Committed maps in original commit order (per-node intermediate sums
  /// must be rebuilt in this order for FP-identical bookkeeping).
  std::vector<CommittedMap> committed_maps;
  bool reduce_planned = false;
  std::uint32_t num_reducers = 0;
  /// (reducer index, node, input MiB) of committed reducers.
  struct CommittedReduce {
    std::uint32_t index = 0;
    NodeId node = kInvalidNode;
    MiB input = 0;
  };
  std::vector<CommittedReduce> committed_reduces;
  /// Retry-budget counters, reconstructed exactly.
  std::map<BlockUnitId, std::uint32_t> bu_attempt_failures;
  std::map<std::uint32_t, std::uint32_t> reduce_attempt_failures;
  std::map<NodeId, std::uint32_t> node_failed_attempts;
  std::vector<SchedulerNote> scheduler_notes;

  /// BUs whose map output survives the crash — the replayed (not redone)
  /// work a recovered run gets for free.
  std::size_t replayed_units() const {
    std::size_t n = 0;
    for (const CommittedMap& m : committed_maps) n += m.bus.size();
    return n;
  }
  MiB replayed_mib() const {
    MiB total = 0;
    for (const CommittedMap& m : committed_maps) total += m.size;
    return total;
  }
};

/// The append-only log + snapshot pair one job's AM attempts share.
/// Writes are O(1) appends; snapshot(now) folds the log into the compact
/// snapshot state (truncating the tail); replay() folds snapshot + tail
/// into a RecoveredState. All operations are deterministic and draw no
/// randomness, so an installed-but-unused journal cannot perturb a run.
class JobJournal {
 public:
  void record_map_commit(TaskId task, NodeId node,
                         const std::vector<BlockUnitId>& bus, MiB size);
  /// The commit of `task` is void (output lost to fetch failures or host
  /// death); its BUs become uncommitted again.
  void record_map_output_lost(TaskId task);
  void record_reduce_plan(std::uint32_t num_reducers);
  void record_reduce_commit(std::uint32_t index, NodeId node, MiB input);
  void record_bu_attempt_failure(BlockUnitId bu);
  void record_reduce_attempt_failure(std::uint32_t index);
  void record_node_attempt_failure(NodeId node);
  /// A shuffle-failure report charged against committed map `task`.
  void record_fetch_report(TaskId task);
  void record_scheduler_note(const SchedulerNote& note);

  /// Folds every record so far into the snapshot and truncates the log.
  void snapshot(SimTime now);

  /// Re-keys the journal to a restarted AM's task-id space: the replayed
  /// state (with committed maps renumbered by the caller to the new
  /// attempt's synthetic task ids) becomes the snapshot and the log is
  /// truncated. Monotone counters (snapshots_taken, total_appends)
  /// persist across the rebase.
  void rebase(RecoveredState state);

  /// Snapshot + tail → the state a fresh AM starts from.
  RecoveredState replay() const;

  std::size_t log_records() const { return log_.size(); }
  std::uint64_t snapshots_taken() const { return snapshots_taken_; }
  SimTime last_snapshot_at() const { return last_snapshot_at_; }
  std::uint64_t total_appends() const { return total_appends_; }

  /// flexmr.journal.v1 — the artifact CI shape-checks: snapshot summary +
  /// pending tail, byte-deterministic.
  std::string to_json() const;

 private:
  enum class Op : std::uint8_t {
    kMapCommit,
    kMapOutputLost,
    kReducePlan,
    kReduceCommit,
    kBuAttemptFailure,
    kReduceAttemptFailure,
    kNodeAttemptFailure,
    kFetchReport,
    kSchedulerNote,
  };
  struct Record {
    Op op;
    CommittedMap map;       // kMapCommit
    TaskId task = kInvalidTask;
    std::uint32_t index = 0;
    NodeId node = kInvalidNode;
    MiB input = 0;
    BlockUnitId bu = 0;
    SchedulerNote note;     // kSchedulerNote
  };

  static void apply(RecoveredState& state, const Record& r);

  RecoveredState snapshot_state_;
  std::vector<Record> log_;
  std::uint64_t snapshots_taken_ = 0;
  std::uint64_t total_appends_ = 0;
  SimTime last_snapshot_at_ = 0;
};

}  // namespace flexmr::recover
