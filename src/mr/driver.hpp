// JobDriver: executes one MapReduce job on a simulated cluster under a
// pluggable Scheduler. It plays the roles the paper assigns to the YARN
// AppMaster and MRAppMaster JobImpl: requesting containers, dispatching
// tasks, tracking progress, running the heartbeat loop, and enforcing the
// exactly-once block-unit invariant.
//
// Mechanism/policy split: ALL state machines live here; Scheduler only
// decides what to launch where (see mr/scheduler.hpp). The attempt types
// are in mr/driver_internal.hpp. driver.cpp holds start, offers, heartbeat
// and the attempt timeline; driver_map.cpp, driver_reduce.cpp (shuffle
// included), driver_faults.cpp, driver_recovery.cpp (AM crash) and
// driver_trace.cpp hold one mechanism each.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "hdfs/block_index.hpp"
#include "mr/job.hpp"
#include "mr/metrics.hpp"
#include "mr/params.hpp"
#include "mr/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "recover/journal.hpp"
#include "simcore/simulator.hpp"
#include "yarn/resource_manager.hpp"

namespace flexmr::faults {
class FaultInjector;
}
namespace flexmr::hdfs {
class ReplicaManager;
}
namespace flexmr::obs {
class TraceSession;
}

namespace flexmr::mr {

/// Per-job namespace inside a *shared* TraceSession: several drivers can
/// record into one Perfetto document when each gets a distinct control pid
/// and a distinct task-token range, while the node / NameNode / fault
/// tracks stay shared (process naming is idempotent per pid). The
/// defaults reproduce the single-job layout byte for byte.
struct TraceNamespace {
  /// Pid of this job's control track (phases, job-level counters).
  std::uint32_t job_pid = obs::kJobPid;
  /// Added to every task token so concurrent jobs' task ids (both starting
  /// from 0) cannot collide inside the tracer's open-task map.
  std::uint64_t token_base = 0;
  /// Process name for the control track; empty = "job <name> [<sched>]".
  std::string label;
  /// Gauges read live driver state and are not deduped by name; a shared
  /// session registers service-level gauges once at the coordinator
  /// instead of one copy per job.
  bool register_gauges = true;
};

class JobDriver final : public DriverContext {
 public:
  /// Single-job form: the driver owns a ResourceManager over the whole
  /// cluster and arms the interference models (recover::RecoveryRunner
  /// runs it).
  JobDriver(Simulator& sim, cluster::Cluster& cluster,
            const hdfs::FileLayout& layout, JobSpec job, SimParams params,
            Scheduler& scheduler);

  /// Shared-cluster form (used by MultiJobCoordinator): container offers
  /// arrive through `shared_rm`, whose offer handler and the cluster's
  /// interference arming belong to the coordinator.
  JobDriver(Simulator& sim, cluster::Cluster& cluster,
            const hdfs::FileLayout& layout, JobSpec job, SimParams params,
            Scheduler& scheduler, yarn::ResourceManager& shared_rm);

  /// Unregisters this driver's machine speed listeners: the cluster may
  /// outlive the driver (sequential jobs, a coordinator dropping a
  /// finished job), and a stale [this] callback is a use-after-free.
  ~JobDriver();

  /// Registers the job (heartbeats, failures, initial offers) without
  /// stepping the simulator. The owner steps until done(). One-shot.
  void start();
  bool done() const { return done_; }
  const JobResult& result() const { return result_; }

  /// Offers one free container on `node`; returns true if consumed.
  /// (The RM calls this through the installed handler in single-job mode;
  /// a coordinator calls it directly in shared mode.)
  bool offer(NodeId node) { return handle_offer(node); }

  /// Containers currently held by this job (running maps + reduces).
  std::uint32_t slots_in_use() const {
    return static_cast<std::uint32_t>(running_map_count_ +
                                      running_reduce_count_);
  }

  /// Cluster-level failure notification from a shared-RM coordinator: the
  /// coordinator has already marked the node dead on the RM (exactly once,
  /// cluster-wide) and schedules the single post-failure re-offer itself.
  /// This driver records the crash/detection events, kills its containers
  /// on the node, reclaims their work, and never touches the node again.
  /// Idempotent per node; also used to inform a job that starts *after*
  /// the node died. Requires start().
  void notify_node_failure(NodeId node);

  /// Container preemption (an over-share job releasing a slot to the
  /// cluster scheduler): kills this job's youngest running non-speculative
  /// map attempt, crediting its consumed BU prefix as PartialCompleted
  /// (FlexMap's elastic tasks make the checkpoint free) and returning the
  /// rest to the pool. Reducers are never preempted — their fetched data
  /// would be lost. Returns false when no preemptible map is running.
  bool preempt_one_map();

  /// Installs the run's declarative fault plan (crashes with optional
  /// rejoin, silent death with heartbeat-expiry detection, degradation
  /// windows, per-attempt transient/launch failures, retry/blacklist
  /// knobs). Must be called before start(); single-job mode only. The plan
  /// is validated (ConfigError) at start(). When a crash is detected the
  /// node's containers are killed, its slots withdrawn, and the *input*
  /// of every map whose output lived on the node is re-executed elsewhere
  /// (the standard MapReduce recovery path); pre-compute reducers that
  /// still need the lost outputs stall until they are regenerated.
  void install_faults(faults::FaultPlan plan);

  // ---- AM crash + journaled recovery (mr::AmAttemptChain) ---------------

  /// Arms journaled recovery: the driver appends to `journal` at every
  /// commit point (map/reduce commits, output losses, attempt-failure
  /// charges) and snapshots it on the heartbeat cadence. Required
  /// (ConfigError at start()) when the installed plan has AM faults — the
  /// job's AmAttemptChain owns the journal and the restarts. Must be set
  /// before start(). Null journal + no AM faults keeps every commit site
  /// on a pointer-test fast path (byte-identical runs).
  void set_journal(recover::JobJournal* journal);

  /// 1-based AM attempt number this driver represents.
  std::uint32_t am_attempt() const { return am_attempt_; }

  /// Kills this AM attempt: every in-flight container is torn down (its
  /// consumed input is wasted simulated time, matching MRAppMaster
  /// semantics — YARN kills the whole application's containers), held
  /// slots return to the RM, the trace closes, and the driver goes
  /// permanently done() WITHOUT a finish_time. Records kAmCrash and the
  /// attempt's teardown accounting. A non-empty `abort_reason` makes this
  /// the job's last attempt: the job aborts with it, recorded as an
  /// in-attempt abort is (kAbort event, trace instant, fault counter,
  /// simulator counters). No-op once done().
  void crash_am(const std::string& abort_reason = {});

  /// Builds AM attempt N+1 of this crashed attempt: a not-yet-started
  /// driver for the same job that allocates from `rm` (the RM outlives
  /// the application attempt). It takes over the durable cluster-level
  /// state — fault plan, armed injector, NameNode view, journal — and its
  /// start() replays the journal, re-pending only uncommitted work. The
  /// injector and replica manager move by pointer: their pending
  /// simulator events capture raw pointers, and start() re-points their
  /// handlers at the successor. Stamps this attempt's AmAttemptRecord
  /// with the restart time and replayed units, and links this attempt to
  /// its successor (see live_attempt()). Only valid after crash_am().
  std::unique_ptr<JobDriver> successor(yarn::ResourceManager& rm);

  /// The RM this driver allocates from: attempt 1's serves every
  /// successor, and the recovery runner routes its offers to the live
  /// attempt.
  yarn::ResourceManager& resource_manager() { return rm_; }

  /// Opt-in tracing: spans/instants for every task lifecycle plus a
  /// metrics time series sampled from the run loop. Must be installed
  /// before start(); the session must outlive the driver's run (its
  /// gauges read driver state at sample time). Null (the default) keeps
  /// every instrumentation site on a pointer-test fast path. Records
  /// under `ns`, so several jobs can merge into one document.
  void set_trace(obs::TraceSession* trace, TraceNamespace ns);

  /// The counters a traced driver bumps (null until tracing starts).
  struct Counters {
    obs::MetricsRegistry::Counter* maps_dispatched = nullptr;
    obs::MetricsRegistry::Counter* maps_completed = nullptr;
    obs::MetricsRegistry::Counter* maps_killed = nullptr;
    obs::MetricsRegistry::Counter* speculative_kills = nullptr;
    obs::MetricsRegistry::Counter* reduces_dispatched = nullptr;
    obs::MetricsRegistry::Counter* reduces_completed = nullptr;
    obs::MetricsRegistry::Counter* fetch_failures = nullptr;
    obs::MetricsRegistry::Counter* fault_events = nullptr;
    obs::MetricsRegistry::Counter* heartbeats = nullptr;
    obs::MetricsRegistry::Counter* am_restarts = nullptr;
    obs::MetricsRegistry::Counter* redone_units = nullptr;
    obs::MetricsRegistry::Counter* degraded_reads = nullptr;
    obs::MetricsRegistry::Counter* parts_reconstructed = nullptr;
  };

  /// Registers every counter and histogram a driver records into. They
  /// dedupe by name, so drivers sharing one session aggregate into
  /// service-wide instruments. The registry's column layout freezes at
  /// the first sampled row, so a shared session whose jobs start after
  /// sampling began calls this up front.
  static Counters register_instruments(obs::MetricsRegistry& metrics);

  // --- DriverContext ---
  SimTime now() const override { return sim_->now(); }
  const JobSpec& job() const override { return job_; }
  const SimParams& params() const override { return params_; }
  const hdfs::FileLayout& layout() const override { return *layout_; }
  hdfs::BlockLocationIndex& index() override { return index_; }
  std::uint32_t num_nodes() const override { return cluster_->num_nodes(); }
  const cluster::MachineSpec& machine_spec(NodeId node) const override {
    return cluster_->machine(node).spec();
  }
  std::uint32_t free_slots(NodeId node) const override {
    return rm_.free_slots(node);
  }
  std::uint32_t total_free_slots() const override { return rm_.total_free(); }
  std::uint32_t total_slots() const override { return rm_.total_slots(); }
  std::vector<RunningMapInfo> running_maps() const override;
  std::size_t aged_running_maps(
      SimDuration min_age, std::vector<RunningMapInfo>& out) const override;
  void running_maps_among(const std::vector<TaskId>& ids,
                          std::vector<RunningMapInfo>& out) const override;
  std::uint64_t map_state_version() const override {
    return map_state_version_;
  }
  std::uint64_t cluster_view_version() const override {
    return cluster_view_version_;
  }
  std::optional<MiBps> observed_ips(NodeId node) const override;
  double map_phase_progress() const override;
  std::size_t total_bus() const override { return layout_->bus.size(); }
  std::size_t processed_bus() const override { return processed_bus_; }
  std::size_t unassigned_bus() const override {
    return index_.unprocessed();
  }
  std::uint32_t total_reducers() const override {
    return static_cast<std::uint32_t>(reduce_tasks_.size());
  }
  MiB next_reducer_input() const override;
  MiB mean_reducer_input() const override {
    return reduce_tasks_.empty()
               ? 0.0
               : total_intermediate_ /
                     static_cast<double>(reduce_tasks_.size());
  }
  bool node_alive(NodeId node) const override {
    return !rm_.is_dead(node);
  }
  bool node_blacklisted(NodeId node) const override {
    return !blacklisted_.empty() && blacklisted_[node] != 0 &&
           !blacklist_saturated();
  }
  bool block_readable(std::uint32_t block) const override;
  obs::EventTracer* tracer() const override { return tracer_; }
  recover::JobJournal* journal() const override { return journal_; }
  std::vector<BlockUnitId> kill_and_reclaim(TaskId task) override;

 private:
  // The attempt types (mr/driver_internal.hpp) and their shared timeline.
  enum class TaskPhase;
  enum class PlannedFault;
  struct Attempt;
  struct MapTask;
  struct ReduceTask;
  /// Stamps `a`'s dispatch, draws its exec noise and then its fate, and
  /// ends its startup: never on a silently-dead node, with `fail` after
  /// container_alloc_s on a launch failure, else with `ready` after `startup`.
  void launch_attempt(Attempt& a, SimDuration startup,
                      Simulator::Handler fail, Simulator::Handler ready);
  /// Starts computing `size` MiB at `rate`: a doomed attempt dies (`fail`)
  /// fail_frac of the way to its ETA, any other completes (`done`) there.
  void start_compute(Attempt& a, MiB size, double rate,
                     Simulator::Handler fail, Simulator::Handler done);
  /// Re-rates computing attempt `a`. A doomed attempt keeps its death
  /// time; any other completes (`done`) at its new ETA.
  void rerate(Attempt& a, double rate, Simulator::Handler done);
  void cancel_pending(Attempt& a);
  /// Input `a` has read so far (0 before its compute starts).
  MiB read_so_far(const Attempt& a) const;
  /// Appends `a`'s record, ending now, with the fields maps and reduces
  /// share; the caller fills in the map-only ones.
  TaskRecord& record_attempt(const Attempt& a, TaskKind kind,
                             TaskStatus status, MiB input,
                             double phase_progress);

  bool handle_offer(NodeId node);
  void dispatch_map(NodeId node, MapLaunch launch);
  void map_compute_start(TaskId id);
  void map_complete(TaskId id);
  /// Every map attempt that ends early goes through here: cancels its
  /// pending event, marks it done, lowers the running count and returns
  /// the input it consumed.
  MiB end_map_attempt(MapTask& task);
  /// Marks `task` kDone: it leaves live_map_ids_ and the running counts.
  void retire_map(MapTask& task);
  /// Appends running map `task`'s entry, as seen at `now`, to `out`.
  void append_running_map(const MapTask& task, SimTime now,
                          std::vector<RunningMapInfo>& out) const;
  /// Ends `task` without credit: records it as `status`, closes its span
  /// with `reason` and bumps `counter` (null = none). The caller releases
  /// the slot. Returns the consumed input.
  MiB kill_map(MapTask& task, TaskStatus status, const char* reason,
               obs::MetricsRegistry::Counter* counter);
  /// Hands dead attempt `task`'s BUs on. A surviving twin takes them over,
  /// with the duty to return them should it die too; otherwise the owner
  /// puts them back in the index and appends them to `reclaimed`. The
  /// twin dies with `task` when it is still running on `lost_node`.
  void hand_on_bus(MapTask& task, NodeId lost_node,
                   std::vector<BlockUnitId>& reclaimed);
  /// Credits `task`'s BUs: processed count, read state, node output.
  void credit_map(MapTask& task);
  void record_map(const MapTask& task, TaskStatus status, MiB consumed,
                  std::uint32_t credited_bus);
  void finish_map_phase();

  /// Plans the reduce phase. `forced_total` > 0 pins the reducer count to
  /// a journaled plan (auto-sizing reads *live* slots, which may differ
  /// after an AM restart); 0 = plan fresh (and journal the result).
  void enqueue_reducers(std::uint32_t forced_total = 0);
  bool dispatch_reduce(NodeId node);
  void reduce_fetch_start(std::size_t idx);
  void reduce_fetch_done(std::size_t idx);
  void handle_fetch_failure(std::size_t idx);
  void retry_fetch(std::size_t idx);
  void report_fetch_failure(NodeId host);
  void reduce_compute_start(std::size_t idx);
  void reduce_complete(std::size_t idx);
  /// Puts dispatched reducer `idx` back in the requeue lane: cancels its
  /// pending event, closes its span with `reason` and clears the attempt
  /// (node, phase, progress, compute start, planned fault).
  void requeue_reducer(std::size_t idx, const char* reason);

  void heartbeat();
  void on_speed_change(NodeId node);

  // Fault machinery. fail_node is the *detection* path (oracle crash,
  // heartbeat expiry, or re-registration resync); on_node_silent is the
  // ground-truth crash of a node the AM has not noticed yet. A coordinator
  // delivering a cluster-level crash suppresses the per-driver re-offer
  // (it schedules one itself, instead of one per job).
  void fail_node(NodeId node, bool schedule_reoffer = true);
  /// Creates the live NameNode view on demand: coordinator-delivered
  /// failures arrive without a per-driver fault plan, but node loss still
  /// needs replica liveness for locality and data-loss checks.
  void ensure_replica_manager();
  void on_node_silent(NodeId node);
  void on_node_rejoin(NodeId node);
  void map_attempt_fail(TaskId id);
  void reduce_attempt_fail(std::size_t idx);
  struct WorstUnit {
    BlockUnitId bu = 0;
    std::uint32_t attempts = 0;
  };
  /// Charges one failed attempt to each of `bus` (journaled) and returns
  /// the unit with the most failures.
  WorstUnit charge_bu_failures(const std::vector<BlockUnitId>& bus);
  /// Aborts the job once `worst` has used up FaultPlan::max_attempts.
  void abort_if_exhausted(const WorstUnit& worst);
  void note_node_attempt_failure(NodeId node);
  /// Offers every free slot once the current event unwinds, unless the
  /// job is done by then.
  void reoffer_later();
  bool blacklist_saturated() const;
  void abort_job(const std::string& reason);
  void record_fault(faults::FaultEventType type, NodeId node,
                    TaskId task = kInvalidTask, std::uint32_t attempts = 0,
                    std::uint32_t block = faults::kInvalidBlock);

  // Data-plane fault machinery (HDFS replica loss + shuffle recovery).
  /// Discards `task`'s credited output: its BUs return to the index (and
  /// `reclaimed`), processed counters roll back, its record is relabeled
  /// kLostOutput.
  void lose_map_output(MapTask& task, std::vector<BlockUnitId>& reclaimed);
  /// Re-opens the map phase after output loss: stalls every reducer that
  /// has not started computing and requeues it for redispatch.
  void reopen_map_phase_for_lost_outputs();
  /// Aborts with DataLossError semantics if any `suspects` block, or the
  /// block of any `reclaimed` BU (unread again), is below read quorum with
  /// unread BUs and no dead holder with a rejoin pending.
  void check_data_loss(std::vector<std::uint32_t> suspects,
                       const std::vector<BlockUnitId>& reclaimed = {});
  /// NameNode re-replication pipeline callback: a copy of `block` (or a
  /// reconstructed rs(k,m) part) landed on `target`.
  void on_block_re_replicated(std::uint32_t block, NodeId target);
  /// Ground-truth single-disk failure on a live node: the disk's
  /// replicas/parts are destroyed (kPartLost / kReplicaLost per block),
  /// the live view and index shrink, and repair work is queued.
  void on_disk_fault(NodeId node, std::uint32_t disk);

  /// Replays the adopted RecoveredState into driver state: node liveness
  /// reconciliation, committed maps re-credited (synthetic Done tasks in
  /// original commit order for FP-identical bookkeeping), the reduce plan
  /// and committed reducers restored, uncommitted reducers re-pended.
  void restore_from_journal();

  double map_rate(const MapTask& task) const;
  double reduce_rate(const ReduceTask& task) const;
  void finish_job();
  /// Copies the simulator's counters into the result.
  void record_sim_counters();

  /// Shared core of kill_and_reclaim / preempt_one_map: stop `id`, credit
  /// its consumed prefix, put the rest back. `reason` labels the trace.
  std::vector<BlockUnitId> reclaim_map(TaskId id, const char* reason);

  // Tracing helpers (all no-ops when trace_ is null).
  void trace_setup();
  void trace_begin_phase(const char* name);
  void trace_end_phase();
  void trace_map_begin(const MapTask& task);
  void trace_task_closed(TaskId id, const char* status, const char* reason,
                         MiB consumed);
  void trace_finish();
  /// The newest attempt along the successor() links — the live one of the
  /// job's AmAttemptChain, which keeps every attempt alive. Gauges read
  /// it: only attempt 1 registers them.
  const JobDriver& live_attempt() const;
  /// Task id → tracer token under this job's namespace.
  std::uint64_t ttok(TaskId id) const { return trace_ns_.token_base + id; }

  Simulator* sim_;
  cluster::Cluster* cluster_;
  const hdfs::FileLayout* layout_;
  JobSpec job_;
  SimParams params_;
  Scheduler* scheduler_;

  hdfs::BlockLocationIndex index_;
  std::unique_ptr<yarn::ResourceManager> owned_rm_;  ///< Single-job mode.
  yarn::ResourceManager& rm_;
  Rng rng_;

  std::vector<std::unique_ptr<MapTask>> map_tasks_;   // id == index
  /// Ids of map tasks not yet Done, ascending: dispatch appends, and an id
  /// leaves the moment its task turns kDone (retire_map). Keeps the
  /// heartbeat sampling scan, speed re-rating and running_maps()
  /// proportional to in-flight work instead of every task ever launched.
  /// Ids are handed out in dispatch order at the current simulated time,
  /// so dispatch times ascend along the list too (dispatch_map asserts
  /// it): the maps at least some age old form a prefix of it.
  std::vector<TaskId> live_map_ids_;
  std::size_t running_speculative_count_ = 0;  ///< Speculative ids in it.
  /// Heartbeat per-node sample accumulators (members so a heartbeat wave
  /// allocates nothing).
  std::vector<double> hb_ips_sum_;
  std::vector<std::uint32_t> hb_ips_cnt_;
  std::vector<std::unique_ptr<ReduceTask>> reduce_tasks_;
  std::size_t next_reducer_ = 0;  ///< Global FIFO dispatch cursor.
  MiB total_intermediate_ = 0;
  std::vector<MiB> intermediate_on_node_;
  std::vector<std::optional<MiBps>> round_ips_;
  /// IPS samples from maps that completed since the last heartbeat round
  /// (Eq. 3 evaluated at task end — the reliable reading for tasks shorter
  /// than a heartbeat period).
  std::vector<std::vector<double>> pending_ips_samples_;

  std::size_t processed_bus_ = 0;
  std::size_t reducers_done_ = 0;
  std::size_t running_reduce_count_ = 0;
  bool reduce_reoffer_pending_ = false;
  bool reduce_ready_ = false;
  /// Consecutive reduce re-offer rounds where every slot declined; after
  /// a few, placement bias is bypassed so a buggy/stale policy can never
  /// wedge the reduce phase (e.g. quotas computed before a node failure).
  std::uint32_t reduce_declined_rounds_ = 0;
  std::size_t reducers_started_ = 0;
  std::size_t reducers_started_snapshot_ = 0;
  bool reduce_force_dispatch_ = false;
  std::vector<std::size_t> reduce_requeue_;  ///< Reducers lost to failures.
  /// Fault plan installed before start(); validated at start(). Empty
  /// plan == no fault machinery at all.
  faults::FaultPlan plan_;
  std::unique_ptr<faults::FaultInjector> injector_;
  /// Live NameNode view (created iff the fault plan is non-empty): per-
  /// block replica liveness plus the bandwidth-modeled re-replication
  /// pipeline. Without faults the static layout is the truth and the
  /// driver skips all replica bookkeeping.
  std::unique_ptr<hdfs::ReplicaManager> replica_mgr_;
  /// BU read state (1 == credited to a completed/partial map). Data loss
  /// is only fatal for blocks with unread BUs.
  std::vector<char> bu_done_;
  /// Fetch-failure reports per map task id (Hadoop's per-mapper counter);
  /// hitting FaultPlan::max_fetch_failures_per_map re-executes the map.
  std::vector<std::uint32_t> map_fetch_reports_;
  /// Nodes that are dead (ground truth) but not yet declared lost by the
  /// AM: their tasks are frozen, their heartbeats stopped.
  std::set<NodeId> silent_nodes_;
  /// Transient-failure counts per map BU / per reduce task; hitting
  /// FaultPlan::max_attempts aborts the job.
  std::vector<std::uint32_t> bu_attempt_failures_;
  std::vector<std::uint32_t> reduce_attempt_failures_;
  /// Failed attempts per node, and the AM blacklist they feed.
  std::vector<std::uint32_t> node_failed_attempts_;
  std::vector<char> blacklisted_;
  /// Per-node speed-listener handles registered in start(), removed in the
  /// destructor (node == index).
  std::vector<cluster::Machine::SpeedListenerId> speed_listener_ids_;
  std::set<NodeId> failed_nodes_;  ///< Failures this driver has handled.
  std::size_t running_map_count_ = 0;
  /// DriverContext state versions; they start at 1 because 0 means "not
  /// tracked". Bumped at every mutation the accessors' contracts name.
  std::uint64_t map_state_version_ = 1;
  std::uint64_t cluster_view_version_ = 1;
  bool map_phase_done_ = false;
  bool done_ = false;
  bool started_ = false;

  /// AM-recovery state: the journal this attempt appends to (null = no
  /// recovery armed), this driver's 1-based attempt number, the replayed
  /// state a restarted attempt resumes from, and whether crash_am() ran.
  recover::JobJournal* journal_ = nullptr;
  std::uint32_t am_attempt_ = 1;
  std::optional<recover::RecoveredState> recovered_;
  bool am_crashed_ = false;
  JobDriver* successor_ = nullptr;

  /// Opt-in observability (null unless set_trace was called). tracer_
  /// caches &trace_->tracer() so hot paths test one pointer; the counter
  /// pointers are registered in trace_setup() and stay valid for the
  /// session's lifetime.
  obs::TraceSession* trace_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  TraceNamespace trace_ns_;
  bool trace_phase_open_ = false;
  Counters ctr_;

  JobResult result_;
};

}  // namespace flexmr::mr
