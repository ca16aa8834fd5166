// FaultPlan — the declarative fault model of one simulated run.
//
// The paper's clusters (12-node physical, 20-node virtual, 40-node
// multi-tenant EC2) exhibit churn, not just heterogeneity: nodes stall,
// containers die, and the AM only learns about a dead node through missed
// heartbeats. A FaultPlan describes every fault the run injects:
//
//   * NodeCrash        — the node's processes die at `at`. A *silent* crash
//                        (the default, Hadoop's reality) is only detected
//                        once `node_liveness_timeout_s` passes without a
//                        heartbeat, so in-flight work on the dead node
//                        wastes real simulated time. A non-silent crash is
//                        detected instantly, as by an oracle: the scripted
//                        failure of a test, example or config file.
//                        With `rejoin_at` set, the node re-registers then:
//                        the RM restores its slots, schedulers re-offer,
//                        and all pre-crash speed estimates are discarded.
//   * DegradedWindow   — a transient slowdown (co-runner burst, thermal
//                        throttling): effective IPS is multiplied by
//                        `factor` during [from, until).
//   * attempt faults   — each task attempt on a node fails independently
//                        with `attempt_failure_prob(node)` (JVM crash, disk
//                        error), and each container launch fails with
//                        `container_launch_failure_prob` before any compute.
//
// Recovery knobs default to Hadoop's: 4 attempts per unit of work
// (mapreduce.map|reduce.maxattempts), AM node blacklisting after 3 failed
// attempts on a node (mapreduce.job.maxtaskfailures.per.tracker), and the
// blacklist is ignored once it would cover more than 33% of the cluster
// (yarn.app.mapreduce.am.job.node-blacklisting.ignore-threshold-node-
// percent). The liveness timeout defaults to 6 heartbeat periods (30 s at
// the simulator's 5 s AM heartbeat) — Hadoop's 600 s NM expiry scaled to
// the same missed-beat count it allows at its 1-3 s NM heartbeat would
// stall small simulated jobs for longer than their whole runtime.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/json.hpp"
#include "common/units.hpp"

namespace flexmr::faults {

struct NodeCrash {
  NodeId node = 0;
  SimTime at = 0;
  /// Absolute time the node re-registers with the RM; nullopt = permanent.
  std::optional<SimTime> rejoin_at;
  /// Silent death (heartbeat-expiry detection). False = oracle detection
  /// at `at` exactly.
  bool silent = true;
};

struct DegradedWindow {
  NodeId node = 0;
  SimTime from = 0;
  SimTime until = 0;
  /// Effective-speed multiplier in (0, 1] applied during the window.
  double factor = 0.5;
};

// ---- per-disk fault domains ----------------------------------------------
//
// A node stripes its replicas/parts across `disks_per_node` disks
// (block b of node n lives on disk (b + n) % disks_per_node, a fixed
// deterministic mapping). A DiskFault destroys exactly that disk's data,
// on a live node or a down one — unlike a crash, the data is really gone,
// so a rejoin block report cannot restore it and only the repair can.
// A DiskDegradedWindow models a slow disk (firmware retries, failing
// media): reads of its data lose their locality discount during the
// window.

struct DiskFault {
  NodeId node = 0;
  std::uint32_t disk = 0;
  SimTime at = 0;
};

struct DiskDegradedWindow {
  NodeId node = 0;
  std::uint32_t disk = 0;
  SimTime from = 0;
  SimTime until = 0;
  /// Fraction of the disk's locality benefit that survives, in (0, 1]:
  /// local bytes on the degraded disk are credited as `factor` local.
  double factor = 0.5;
};

struct FaultPlan {
  std::vector<NodeCrash> crashes;
  std::vector<DegradedWindow> degradations;

  /// Disks per node of the block→disk striping (fault-domain granularity).
  std::uint32_t disks_per_node = 4;
  /// Single-disk data loss on live nodes.
  std::vector<DiskFault> disk_faults;
  /// Slow-disk windows (degraded read bandwidth on one disk).
  std::vector<DiskDegradedWindow> disk_degradations;

  /// Cluster-wide per-attempt transient failure probability.
  double attempt_failure_prob = 0.0;
  /// Per-node overrides of attempt_failure_prob (node, probability).
  std::vector<std::pair<NodeId, double>> node_attempt_failure_prob;
  /// Probability a container launch fails during startup (no compute).
  double container_launch_failure_prob = 0.0;

  /// Probability one reducer→map-host shuffle fetch fails transiently
  /// (connection reset, read timeout). Failed fetches are retried with
  /// exponential backoff and reported to the AM; a map output accumulating
  /// `max_fetch_failures_per_map` reports is re-executed (Hadoop's
  /// "Too many fetch-failures" path).
  double fetch_failure_prob = 0.0;
  /// Initial backoff before refetching a failed shuffle source; doubles per
  /// consecutive failure of the same fetch (mapreduce.reduce.shuffle
  /// retry-delay analogue).
  SimDuration fetch_retry_backoff_s = 1.0;
  /// Fetch-failure reports against one map output before the AM re-executes
  /// the map (mapreduce.job.max.fetchfailures.per.mapper, default 3).
  std::uint32_t max_fetch_failures_per_map = 3;

  /// When a node dies, the NameNode restores the replication factor of its
  /// blocks by copying surviving replicas onto other nodes. Disable to model
  /// a cluster whose re-replication is throttled to zero (blocks stay
  /// under-replicated until rejoin).
  bool re_replication = true;
  /// Bandwidth of the (single-stream) re-replication pipeline; one block of
  /// `block_size` MiB takes block_size / bandwidth seconds to restore.
  double re_replication_bandwidth_mibps = 100.0;

  // ---- AppMaster faults (journaled job recovery) ------------------------
  //
  // The AM itself can die: every in-flight container is torn down (its
  // work is wasted simulated time, matching MRAppMaster semantics), and
  // after `am_restart_delay_s` a fresh AM attempt replays the job journal
  // and re-runs only uncommitted work — until `am_max_attempts` is spent,
  // at which point the job aborts.

  /// Fixed simulated times at which the current AM attempt crashes.
  std::vector<SimTime> am_crashes;
  /// Probabilistic AM death: mean time to failure per AM attempt,
  /// exponentially distributed (0 = disabled). Each restarted attempt
  /// draws its own lifetime.
  SimDuration am_crash_mttf_s = 0.0;
  /// AM attempts before the job aborts
  /// (mapreduce.am.max-attempts, Hadoop default 2).
  std::uint32_t am_max_attempts = 2;
  /// Delay between an AM crash and the replacement attempt registering
  /// with the RM (container re-allocation + JVM spin-up).
  SimDuration am_restart_delay_s = 10.0;
  /// Cadence at which the journal folds its log into a snapshot (piggy-
  /// backed on the AM heartbeat, so the effective cadence is quantized to
  /// heartbeat periods). 0 = never snapshot (replay walks the full log).
  SimDuration am_snapshot_interval_s = 60.0;

  /// True when the plan can kill the AM (fixed-time or probabilistic) —
  /// such runs must go through the recovery runner.
  bool has_am_faults() const {
    return !am_crashes.empty() || am_crash_mttf_s > 0.0;
  }

  /// Declare a node lost after this long without a heartbeat.
  SimDuration node_liveness_timeout_s = 30.0;
  /// Attempts per unit of work before the job aborts (Hadoop: 4).
  std::uint32_t max_attempts = 4;
  /// Failed attempts on one node before the AM blacklists it (Hadoop: 3).
  std::uint32_t blacklist_threshold = 3;
  /// Ignore the blacklist once it covers more than this fraction of the
  /// cluster (Hadoop: 0.33).
  double blacklist_ignore_fraction = 0.33;

  /// Effective transient-attempt failure probability for `node`.
  double attempt_failure_prob_for(NodeId node) const;

  /// Smallest surviving-locality factor of any disk-degradation window
  /// active on (node, disk) at time `t`; 1.0 when none is.
  double disk_degradation_factor(NodeId node, std::uint32_t disk,
                                 SimTime t) const;

  /// True when the plan injects nothing (the fault machinery is skipped
  /// entirely and runs are byte-identical to a plan-free build).
  bool empty() const;

  /// Structural validation against a cluster of `num_nodes` nodes. Throws
  /// ConfigError naming the offending entry: out-of-range node ids,
  /// negative times, probabilities outside [0, 1], rejoin before crash,
  /// overlapping crash intervals on one node, degenerate windows, AM knobs
  /// out of range. A positive `horizon_s` additionally rejects crash times
  /// scheduled at or beyond it (they could never fire within the run).
  void validate(std::uint32_t num_nodes, SimTime horizon_s = 0.0) const;
};

/// Fault-timeline event kinds recorded into JobResult::events.
enum class FaultEventType {
  kCrash,           ///< Ground truth: node died (silent or oracle).
  kDetected,        ///< AM/RM declared the node lost.
  kRejoin,          ///< Node re-registered; slots restored.
  kAttemptFailure,  ///< A task attempt failed transiently.
  kLaunchFailure,   ///< A container launch failed during startup.
  kBlacklist,       ///< AM blacklisted a node.
  kAbort,           ///< Job aborted (max_attempts exceeded / cluster lost).
  kReplicaLost,     ///< A block lost one replica to a node death.
  kReReplicated,    ///< NameNode restored a replica on a surviving node.
  kDataLoss,        ///< A block lost its last replica before being read.
  kFetchFailure,    ///< A reducer's shuffle fetch from a map host failed.
  kMapOutputLost,   ///< Fetch-failure reports forced a map re-execution.
  kAmCrash,         ///< The AppMaster died; in-flight containers torn down.
  kAmRestart,       ///< A replacement AM attempt replayed the journal.
  kPartLost,        ///< An rs(k,m) block lost one part (disk/node fault).
  kPartReconstructed,  ///< The repair pipeline rebuilt a lost part.
  kDiskFault,       ///< A single disk died on a live node.
};

/// Stable wire names ("crash", "detected", "rejoin", ...).
const char* to_string(FaultEventType type);

/// Sentinel for FaultEvent::block on non-storage events.
inline constexpr std::uint32_t kInvalidBlock =
    static_cast<std::uint32_t>(-1);

struct FaultEvent {
  SimTime time = 0;
  FaultEventType type = FaultEventType::kCrash;
  NodeId node = kInvalidNode;
  TaskId task = kInvalidTask;
  /// Attempt count at the moment of the event (failure/blacklist events).
  std::uint32_t attempts = 0;
  /// HDFS block id for storage-plane events (kReplicaLost, kReReplicated,
  /// kDataLoss); kInvalidBlock otherwise.
  std::uint32_t block = kInvalidBlock;
};

/// Streams the plan as a JSON object (embedded in flexmr.job_result.v1 so
/// a failing fault-sweep run is reproducible from its artifact alone).
void write_fault_plan(JsonWriter& writer, const FaultPlan& plan);

/// Streams one fault event as a JSON object.
void write_fault_event(JsonWriter& writer, const FaultEvent& event);

}  // namespace flexmr::faults
