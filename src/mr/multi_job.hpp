// MultiJobCoordinator: several MapReduce jobs sharing one cluster.
//
// The coordinator owns the shared ResourceManager's offer handler and
// arbitrates every freed container between the submitted jobs:
//   * kFifo — the earliest-submitted unfinished job gets first refusal;
//     work-conserving (a job with nothing to launch passes the offer on),
//   * kFair — jobs are offered in ascending order of containers currently
//     held, converging to equal shares while all are busy,
//   * kWeightedFair — ascending order of containers-held / weight, so a
//     weight-2 job converges to twice the slots of a weight-1 job.
//
// Each job keeps its own scheduler (so a FlexMap job and a stock job can
// share a cluster), its own heartbeat loop, and all single-job
// invariants; only slot arbitration is centralized — which is exactly how
// YARN splits responsibilities between the RM scheduler and per-job AMs.
//
// The coordinator is *incremental*: jobs may be submitted while earlier
// ones are already running (start() registers the cluster once; run_all()
// remains as the one-shot batch wrapper). Cluster-level faults are also
// centralized: a node death is applied to the shared RM exactly once and
// every affected job is *notified*, instead of each job independently
// re-injecting the same crash (which marked the node dead N times and
// scheduled N duplicate re-offers).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/attempt_chain.hpp"
#include "mr/driver.hpp"

namespace flexmr::mr {

enum class SharePolicy {
  kFifo,
  kFair,
  kWeightedFair,
};

/// Stable wire names ("fifo", "fair", "weighted-fair").
const char* to_string(SharePolicy policy);

/// Container preemption of over-share jobs (YARN capacity-scheduler style,
/// routed through the RM's preemption hook). Every `period_s` the
/// coordinator computes each active job's weighted fair share; when a job
/// below its share still has work pending, containers are reclaimed from
/// jobs holding more than `over_share_factor` times their share, youngest
/// map attempt first (FlexMap's elastic tasks credit the consumed prefix,
/// so preemption wastes almost no work).
struct PreemptionConfig {
  bool enabled = false;
  SimDuration period_s = 30.0;
  double over_share_factor = 1.25;
  /// Kill budget per pass: bounds thrash when shares oscillate.
  std::uint32_t max_kills_per_round = 2;
};

class MultiJobCoordinator {
 public:
  MultiJobCoordinator(Simulator& sim, cluster::Cluster& cluster,
                      SharePolicy policy);

  /// Submits a job entering the cluster at `submit_time` with the given
  /// fair-share weight. `layout` and `scheduler` must outlive the run.
  /// Callable before start() or — submit-while-running — at any point
  /// after; a submit_time in the past starts the job immediately.
  /// Returns the job's index.
  std::size_t submit(const hdfs::FileLayout& layout, JobSpec spec,
                     SimParams params, Scheduler& scheduler,
                     SimTime submit_time, double weight = 1.0);

  /// Failure injection: node `node` dies at `time` — cluster-wide, applied
  /// to the shared RM exactly once, with every affected job notified (and
  /// jobs admitted later informed at their start). Call before start().
  void schedule_node_failure(NodeId node, SimTime time);

  /// The attempt budget of every job with a scheduled AM crash. Install
  /// before start() and before the first schedule_am_crash().
  void set_am_recovery(AmBudget budget);

  /// Kills job `job`'s AM at absolute time `time`; inert if the job is not
  /// running then (not yet admitted, finished, or already down). The first
  /// call for a job installs its recovery journal, so it must precede that
  /// job's start — after the coordinator itself has started, call it right
  /// after submit(), before the start event fires.
  void schedule_am_crash(std::size_t job, SimTime time);

  /// True when `job` died for good — its AM crashed with no attempts left.
  bool am_aborted(std::size_t job) const {
    return jobs_[job].chain->exhausted();
  }
  /// Finished for admission purposes: started, drained, and not in
  /// AM-restart limbo.
  bool job_finished(std::size_t job) const {
    return jobs_[job].chain->finished();
  }

  /// The job's result with the cross-attempt AM timeline folded in
  /// (identical to driver(job).result() for never-crashed jobs); see
  /// AmAttemptChain::result().
  JobResult result(std::size_t job) const {
    return jobs_[job].chain->result();
  }

  /// Merged observability: every job records into `trace` under its own
  /// pid/token namespace while node, NameNode and fault tracks are shared,
  /// producing ONE Perfetto document for the whole workload. Install
  /// before start().
  void set_trace(obs::TraceSession* trace);

  void set_preemption(PreemptionConfig config);

  /// Registers the cluster (interference, offer handler, failure events)
  /// and starts every job at its submit time. The owner steps the
  /// simulator; poll all_done() / driver(j).done() for completion.
  void start();
  bool started() const { return started_; }

  /// True once every submitted job has started and finished.
  bool all_done() const;

  std::size_t num_jobs() const { return jobs_.size(); }
  /// Job `job`'s live AM attempt.
  JobDriver& driver(std::size_t job) { return jobs_[job].chain->driver(); }
  const JobDriver& driver(std::size_t job) const {
    return jobs_[job].chain->driver();
  }
  double weight(std::size_t job) const { return jobs_[job].weight; }

  /// Batch wrapper: start(), step to completion, results in submission
  /// order. One-shot; requires at least one pre-submitted job.
  std::vector<JobResult> run_all();

  yarn::ResourceManager& resource_manager() { return rm_; }

  /// Containers reclaimed by preemption so far.
  std::uint64_t preemption_kills() const { return preemption_kills_; }

 private:
  bool handle_offer(NodeId node);
  void start_job(std::size_t j);
  void on_node_failure(NodeId node);
  void preemption_pass();
  std::uint32_t handle_preemption(std::uint32_t want);
  void trace_setup();
  /// Containers held per unit weight — the fair-share sort key.
  double weighted_usage(std::size_t j) const;

  Simulator* sim_;
  cluster::Cluster* cluster_;
  SharePolicy policy_;
  yarn::ResourceManager rm_;
  Rng rng_;

  struct Entry {
    /// The job's AM attempts; heap-held because its events capture it.
    std::unique_ptr<AmAttemptChain> chain;
    SimTime submit_time = 0;
    double weight = 1.0;
  };
  std::vector<Entry> jobs_;
  std::vector<std::size_t> offer_order_;  ///< handle_offer's scratch.
  std::vector<std::pair<NodeId, SimTime>> failures_;
  /// (job, time) AM kills scheduled before start().
  std::vector<std::pair<std::size_t, SimTime>> am_crashes_;
  AmBudget am_budget_;
  obs::TraceSession* trace_ = nullptr;
  PreemptionConfig preemption_;
  obs::MetricsRegistry::Counter* ctr_preemptions_ = nullptr;
  std::uint64_t preemption_kills_ = 0;
  bool started_ = false;
  bool ran_ = false;
};

}  // namespace flexmr::mr
