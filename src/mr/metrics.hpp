// Experiment metrics, defined exactly as in the paper (§II-C):
//
//   Productivity = effective runtime / total runtime            (Eq. 1)
//   Efficiency   = serial runtime /
//                  (map-phase runtime × #available containers)  (Eq. 2)
//
// where effective runtime excludes container allocation and JVM startup,
// serial runtime is approximated by the sum of all (successful) map task
// runtimes, and the map-phase runtime spans first container start to last
// map container stop.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "faults/fault_plan.hpp"
#include "hdfs/block.hpp"

namespace flexmr::mr {

enum class TaskKind { kMap, kReduce };

/// Stable wire names ("map"/"reduce"), shared by the CSV and JSON exports.
const char* to_string(TaskKind kind);

enum class TaskStatus {
  kCompleted,         ///< Ran to the end of its input split.
  kPartialCompleted,  ///< Stopped early but its consumed prefix is kept
                      ///< (SkewTune straggler mitigation).
  kKilled,            ///< Work discarded (losing speculative copy, or
                      ///< running on a node when it failed).
  kLostOutput,        ///< Completed, but its host node failed before the
                      ///< output was consumed; the input re-executes.
  kFailed,            ///< Attempt died (launch failure, JVM crash); the
                      ///< work retries up to FaultPlan::max_attempts.
};

/// Stable wire names ("completed"/"partial"/"killed"/"lost-output"/
/// "failed").
const char* to_string(TaskStatus status);

struct TaskRecord {
  TaskId id = 0;
  NodeId node = 0;
  TaskKind kind = TaskKind::kMap;
  TaskStatus status = TaskStatus::kCompleted;
  bool speculative = false;

  SimTime dispatch_time = 0;   ///< Container granted; overheads begin.
  SimTime compute_start = 0;   ///< First input byte read (post-JVM).
  SimTime end_time = 0;

  MiB input_mib = 0;           ///< Input consumed (maps) / fetched (reduces).
  std::uint32_t num_bus = 0;   ///< BUs credited to this task.
  /// Fraction of the map input with a replica on the host node (1 for
  /// reduces; locality is a map-side notion here).
  double local_fraction = 1.0;
  /// Map-phase progress (0..1) at the moment this task ended.
  double phase_progress_at_end = 0;

  SimDuration total_runtime() const { return end_time - dispatch_time; }
  SimDuration effective_runtime() const {
    return compute_start > 0 && end_time > compute_start
               ? end_time - compute_start
               : 0.0;
  }
  /// Eq. 1.
  double productivity() const {
    const double total = total_runtime();
    return total > 0 ? effective_runtime() / total : 0.0;
  }
  bool credited() const {
    return (status == TaskStatus::kCompleted ||
            status == TaskStatus::kPartialCompleted) &&
           num_bus > 0;
  }
};

/// One AM attempt's fate in a journaled-recovery run: when it died, when
/// its successor registered, and the work the crash threw away versus the
/// committed work the journal let the successor replay for free.
struct AmAttemptRecord {
  std::uint32_t attempt = 1;        ///< 1-based AM attempt number.
  SimTime crash_time = 0;           ///< When this attempt died.
  SimTime restart_time = 0;         ///< When the successor registered.
  MiB wasted_mib = 0;               ///< In-flight input torn down with it.
  std::uint64_t wasted_units = 0;   ///< In-flight BUs returned to the pool.
  std::uint64_t replayed_units = 0; ///< Committed BUs replayed, not redone.
};

struct JobResult {
  std::string benchmark;
  std::string scheduler;
  std::uint32_t total_slots = 0;
  /// The run's RNG seed, echoed for reproducibility of fault sweeps.
  std::uint64_t seed = 0;

  /// Set when the job could not finish (max_attempts exceeded, whole
  /// cluster permanently lost). An aborted result still carries every
  /// task record and fault event up to the abort.
  bool aborted = false;
  std::string abort_reason;

  /// The fault plan in force (empty plan when no faults were injected).
  faults::FaultPlan fault_plan;
  /// Chronological fault timeline: crashes, detections, rejoins, attempt
  /// failures, blacklistings, abort.
  std::vector<faults::FaultEvent> fault_events;

  /// Block ids whose last replica died before the block was fully read
  /// (under rs(k,m): blocks left with fewer than k live parts). Set only
  /// on a data-loss abort.
  std::vector<std::uint32_t> lost_blocks;

  /// The storage policy the input file was laid out with (default
  /// replication unless the run opted into rs(k,m)).
  hdfs::StoragePolicy storage;
  /// Map dispatches that read an rs(k,m) block with dead parts and paid
  /// the decode cost.
  std::uint64_t degraded_reads = 0;
  /// Lost parts the repair pipeline reconstructed.
  std::uint64_t parts_reconstructed = 0;
  /// Input bytes that went through degraded-read decoding.
  MiB decode_mib = 0;
  /// Bytes the repair pipeline read (k× amplified under rs(k,m)).
  MiB repair_read_mib = 0;

  /// AM restarts this job survived (0 in a crash-free run), the
  /// per-attempt crash/replay timeline, and the total in-flight work the
  /// crashes threw away (re-run by successor attempts).
  std::uint32_t am_restarts = 0;
  std::vector<AmAttemptRecord> am_attempts;
  MiB redone_work_mib = 0;
  std::uint64_t redone_work_units = 0;

  SimTime submit_time = 0;
  SimTime map_phase_start = 0;  ///< First map container dispatch.
  SimTime map_phase_end = 0;    ///< Last map container stop.
  SimTime finish_time = 0;

  /// Simulator counters at job completion (whole-simulator totals: in
  /// shared-cluster mode they span every co-running job).
  std::uint64_t sim_events_fired = 0;
  std::uint64_t sim_events_cancelled = 0;
  std::uint64_t sim_queue_peak = 0;

  std::vector<TaskRecord> tasks;

  /// Replayed commits a successor AM attempt voided by losing their
  /// output, by position in commit order (their records are in earlier
  /// attempts' results). merge_attempts relabels them; not serialised.
  std::vector<TaskId> voided_replays;

  SimDuration jct() const { return finish_time - submit_time; }
  SimDuration map_phase_runtime() const {
    return map_phase_end - map_phase_start;
  }

  /// Sum of successful map tasks' total runtimes (the paper's serial-
  /// runtime approximation).
  SimDuration map_serial_runtime() const;

  /// Eq. 2. Uses total_slots as "# of available containers".
  double efficiency() const;

  /// Mean productivity over completed map tasks.
  double mean_map_productivity() const;

  /// Total runtimes of completed map tasks (Fig. 1 / Fig. 3a material).
  SampleSet map_runtimes() const;

  /// Slot-seconds consumed by killed tasks (speculation waste).
  SimDuration wasted_slot_time() const;

  std::size_t count(TaskKind kind, TaskStatus status) const;
  std::size_t map_tasks_launched() const;
};

/// Stitches a job's AM attempts into one result. `last` is the final
/// attempt's result and `earlier` the retired attempts' in attempt order.
/// Earlier attempts' task records and fault events come first; submit
/// time and map-phase start come from attempt 1 and map-phase end is the
/// latest of all attempts. Each crashed attempt's own crash record joins
/// am_attempts, and their wasted work sums to the redone totals. A
/// successor's voided_replays relabel the earlier records they name
/// kLostOutput: the credited map records of the attempts before it are,
/// in order, the commits it replayed.
JobResult merge_attempts(const std::vector<const JobResult*>& earlier,
                         JobResult last);

/// Thrown by recover::RecoveryRunner::run when the job aborts instead of
/// completing (a unit of work exceeded max_attempts, every node died with
/// no rejoin pending, or the AM ran out of attempts). Carries the partial
/// JobResult so callers can still inspect the task records and fault
/// timeline of the doomed run.
class JobAbortedError : public std::runtime_error {
 public:
  JobAbortedError(const std::string& reason, JobResult result)
      : std::runtime_error("job aborted: " + reason),
        result_(std::move(result)) {}

  const JobResult& result() const { return result_; }

 private:
  JobResult result_;
};

/// Thrown when the last replica of an unread block dies with no rejoin
/// pending: HDFS has physically lost input data and no amount of retrying
/// recovers it. The lost block ids ride along (also mirrored in
/// result().lost_blocks).
class DataLossError : public JobAbortedError {
 public:
  DataLossError(const std::string& reason, JobResult result)
      : JobAbortedError(reason, std::move(result)) {}

  const std::vector<std::uint32_t>& lost_blocks() const {
    return result().lost_blocks;
  }
};

}  // namespace flexmr::mr
