// AmAttemptChain: one job's AM attempts, YARN's application attempts under
// yarn.resourcemanager.am.max-attempts. A crashed JobDriver is done()
// without a finish time; the chain plays YARN's part for a single job
// (recover::RecoveryRunner) and for every job of a MultiJobCoordinator:
//
//   * crash() kills the live attempt, then aborts the job on the budget's
//     last attempt or schedules the restart after the re-allocation delay,
//   * the restart starts the crashed attempt's successor() over attempt 1's
//     RM (YARN outlives the application attempt); it replays the journal
//     and re-runs only uncommitted work,
//   * result() stitches the attempts into one JobResult (merge_attempts).
//
// Crashed attempts live as long as the chain: their pending simulator
// events capture them and are done()-gated. The restart event captures the
// chain, so a chain never moves.
#pragma once

#include <memory>
#include <vector>

#include "mr/driver.hpp"
#include "recover/journal.hpp"

namespace flexmr::mr {

/// The attempt budget of a job whose AM can die.
struct AmBudget {
  /// A crash on this attempt aborts the job.
  std::uint32_t max_attempts = 2;
  /// Downtime between an AM death and its successor's registration.
  SimDuration restart_delay_s = 10.0;
};

class AmAttemptChain {
 public:
  /// Takes attempt 1, not yet started.
  AmAttemptChain(Simulator& sim, std::unique_ptr<JobDriver> first);
  AmAttemptChain(const AmAttemptChain&) = delete;
  AmAttemptChain& operator=(const AmAttemptChain&) = delete;

  /// Makes the AM killable: attempt 1 appends to the chain's journal from
  /// its first commit on, and crash() spends `budget`. Before start();
  /// without it, commit sites stay on the driver's null-journal fast path.
  void enable_recovery(AmBudget budget);
  bool recoverable() const { return live_->journal() != nullptr; }

  /// Attempt N records into `trace` under `base` with its task tokens
  /// shifted by N - 1 attempt strides. Successors register no gauges:
  /// attempt 1's read the live attempt. Before start().
  void set_trace(obs::TraceSession* trace, TraceNamespace base);

  /// Starts attempt 1. One-shot.
  void start();

  /// Kills the live attempt; schedules its successor, or aborts the job
  /// when the budget is spent (the abort reaches the result, the trace's
  /// fault track and the fault_events counter as an in-attempt abort
  /// does). Inert unless an attempt is live: before start(), after the
  /// job finished or aborted, and during AM downtime.
  void crash();

  /// The live attempt (during AM downtime, the one that just crashed).
  JobDriver& driver() { return *live_; }
  const JobDriver& driver() const { return *live_; }

  /// An attempt is live: started, and neither done nor down.
  bool running() const { return started_ && !live_->done(); }

  /// Started and drained with no successor coming: finished, aborted in
  /// an attempt, or out of AM attempts.
  bool finished() const {
    return started_ && live_->done() && !restart_pending_;
  }
  /// True once a crash spent the last AM attempt.
  bool exhausted() const { return exhausted_; }
  /// AM attempts constructed so far (1 in a crash-free run).
  std::uint32_t attempts_started() const {
    return static_cast<std::uint32_t>(attempts_.size());
  }
  const recover::JobJournal& journal() const { return journal_; }

  /// The attempts merged into one result (merge_attempts).
  JobResult result() const;

 private:
  void restart();

  Simulator* sim_;
  /// Every attempt in order; live_ is the last.
  std::vector<std::unique_ptr<JobDriver>> attempts_;
  JobDriver* live_;
  recover::JobJournal journal_;
  AmBudget budget_;
  obs::TraceSession* trace_ = nullptr;
  TraceNamespace trace_base_;
  bool started_ = false;
  bool restart_pending_ = false;
  bool exhausted_ = false;
};

}  // namespace flexmr::mr
