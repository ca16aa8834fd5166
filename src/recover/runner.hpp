// RecoveryRunner — the single-job entry point: one job on a cluster of
// its own, run to completion across its AM attempts.
//
// Attempt 1 is a plain single-job driver: it owns the ResourceManager and
// arms the cluster's interference models. The runner hands it to an
// mr::AmAttemptChain, which owns the crash/restart/merge protocol it
// shares with MultiJobCoordinator, and adds what only a single job has:
//
//   * the fault plan, installed on attempt 1; the journal is installed
//     only when the plan can kill the AM,
//   * the plan's fixed `am_crashes`, plus one exponential(am_crash_mttf_s)
//     lifetime draw per attempt from the runner's own RNG stream,
//   * the run loop, and the throw when the job aborts.
//
// Every successor allocates from attempt 1's RM, whose offers the runner
// routes to whichever attempt is live.
#pragma once

#include <memory>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "mr/attempt_chain.hpp"
#include "recover/journal.hpp"

namespace flexmr::recover {

class RecoveryRunner {
 public:
  /// Builds attempt 1 under `plan` (validated by its start()) and, when
  /// set, records into `trace`.
  RecoveryRunner(Simulator& sim, cluster::Cluster& cluster,
                 const hdfs::FileLayout& layout, mr::JobSpec job,
                 mr::SimParams params, mr::Scheduler& scheduler,
                 faults::FaultPlan plan,
                 obs::TraceSession* trace = nullptr);

  /// Runs the job across AM attempts to completion and returns the merged
  /// result. One-shot. Throws JobAbortedError when the attempt budget is
  /// spent (or the job aborts for any in-attempt reason), DataLossError on
  /// unrecoverable input loss.
  mr::JobResult run();

  /// The job's journal (shared by every attempt; empty unless the plan
  /// has AM faults) — the recovery artifact CI shape-checks via to_json().
  const JobJournal& journal() const { return chain_.journal(); }

  /// AM attempts constructed so far (1 in a crash-free run).
  std::uint32_t attempts_started() const {
    return chain_.attempts_started();
  }

 private:
  /// Draws the live attempt's exponential lifetime (if mttf is armed).
  void arm_mttf();

  Simulator* sim_;
  faults::FaultPlan plan_;
  obs::TraceSession* trace_;
  /// AM-lifetime draws: a stream of its own so arming MTTF crashes never
  /// perturbs the driver/injector sequences (fixed-crash runs stay
  /// byte-identical when mttf stays 0).
  Rng rng_;
  mr::AmAttemptChain chain_;
};

}  // namespace flexmr::recover
