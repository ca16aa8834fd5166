// RecoveryRunner — the restart loop around killable AM attempts.
//
// A single-job run with AM faults armed cannot go through JobDriver::run():
// a crashed driver is permanently done() without a finish time, and someone
// outside the dying AM must play YARN's role — notice the application
// attempt failed, wait out the container re-allocation delay, and launch a
// replacement attempt that resumes from the job journal. This runner is
// that someone:
//
//   * attempt 1 is a normal single-job driver (owns the RM, arms cluster
//     interference) with the runner's journal installed,
//   * the runner schedules the plan's fixed `am_crashes` plus one
//     exponential(am_crash_mttf_s) lifetime draw per attempt from its own
//     RNG stream, and fires crash_am() on whichever attempt is live,
//   * after `am_restart_delay_s`, the crashed attempt's successor() — a
//     fresh shared-RM driver holding its fault plan, armed injector,
//     NameNode view and journal — re-registers with the surviving RM and
//     replays the journal, re-running only uncommitted work,
//   * a crash on attempt `am_max_attempts` aborts the job (JobAbortedError),
//   * the final JobResult is the last attempt's, with every prior attempt's
//     task records and fault events stitched in chronologically and the
//     per-attempt crash/replay timeline attached. JCT spans first submit to
//     final finish, so AM downtime counts against the job.
//
// Crashed drivers stay alive inside the runner until it is destroyed:
// their pending simulator events capture `this` and are done()-gated, and
// attempt 1 owns the ResourceManager every successor allocates from.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "mr/driver.hpp"
#include "recover/journal.hpp"

namespace flexmr::obs {
class TraceSession;
}

namespace flexmr::recover {

class RecoveryRunner {
 public:
  /// Mirrors the single-job wiring of workloads::run_job and builds
  /// attempt 1. `plan` must have AM faults (otherwise use JobDriver::run
  /// directly); it is validated by attempt 1's start().
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

  /// The job's journal (shared by every attempt) — the recovery artifact
  /// CI shape-checks via to_json().
  const JobJournal& journal() const { return journal_; }

  /// AM attempts constructed so far (1 in a crash-free run).
  std::uint32_t attempts_started() const {
    return static_cast<std::uint32_t>(attempts_.size());
  }

 private:
  /// Kills the live attempt; schedules the replacement or aborts the job.
  void on_am_crash();
  /// Builds attempt N+1 as the crashed attempt's successor and starts it.
  void restart();
  /// Draws the current attempt's exponential lifetime (if mttf is armed).
  void arm_mttf();
  /// The last attempt's result plus the stitched cross-attempt timeline.
  mr::JobResult merge() const;

  Simulator* sim_;
  faults::FaultPlan plan_;
  obs::TraceSession* trace_;
  /// AM-lifetime draws: a stream of its own so arming MTTF crashes never
  /// perturbs the driver/injector sequences (fixed-crash runs stay
  /// byte-identical when mttf stays 0).
  Rng rng_;

  JobJournal journal_;
  /// Every attempt ever started, in order; back() is live (or just
  /// crashed). Earlier entries stay alive — see the header comment.
  std::vector<std::unique_ptr<mr::JobDriver>> attempts_;
  mr::JobDriver* current_ = nullptr;
  bool restart_pending_ = false;
  bool aborted_ = false;
  std::string abort_reason_;
  SimTime abort_time_ = 0;
};

}  // namespace flexmr::recover
