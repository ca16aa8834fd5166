#include "mr/attempt_chain.hpp"

#include <string>

namespace flexmr::mr {

namespace {
/// Trace-token spacing between AM attempts: each attempt numbers its tasks
/// from 0 again (reduce tokens at 1'000'000), so successors record under
/// disjoint token ranges. A service job's kServiceTokenStride-wide window
/// holds 10 attempts.
constexpr std::uint64_t kAttemptTokenStride = 10'000'000ULL;
}  // namespace

AmAttemptChain::AmAttemptChain(Simulator& sim,
                               std::unique_ptr<JobDriver> first)
    : sim_(&sim), live_(first.get()) {
  attempts_.push_back(std::move(first));
}

void AmAttemptChain::enable_recovery(AmBudget budget) {
  budget_ = budget;
  live_->set_journal(&journal_);  // asserts attempt 1 has not started
}

void AmAttemptChain::set_trace(obs::TraceSession* trace,
                               TraceNamespace base) {
  trace_ = trace;
  trace_base_ = std::move(base);
  live_->set_trace(trace_, trace_base_);
}

void AmAttemptChain::start() {
  started_ = true;
  live_->start();  // one-shot: a second start() fails its assertion
}

void AmAttemptChain::crash() {
  if (!running()) return;
  const std::uint32_t attempt = live_->am_attempt();
  if (attempt >= budget_.max_attempts) {
    // The job dies with this attempt, recorded like an in-attempt abort.
    exhausted_ = true;
    live_->crash_am("AM crashed on attempt " + std::to_string(attempt) +
                    " of " + std::to_string(budget_.max_attempts) +
                    " (am_max_attempts exhausted)");
    return;
  }
  live_->crash_am();
  restart_pending_ = true;
  sim_->schedule_after(budget_.restart_delay_s, [this]() { restart(); });
}

void AmAttemptChain::restart() {
  std::unique_ptr<JobDriver> next =
      live_->successor(attempts_.front()->resource_manager());
  if (trace_ != nullptr) {
    TraceNamespace ns = trace_base_;
    ns.token_base += kAttemptTokenStride * (next->am_attempt() - 1);
    ns.register_gauges = false;
    next->set_trace(trace_, std::move(ns));
  }
  live_ = next.get();
  attempts_.push_back(std::move(next));
  restart_pending_ = false;
  // Node deaths need no re-notification: the successor's start() reconciles
  // every node the RM holds dead.
  live_->start();
}

JobResult AmAttemptChain::result() const {
  std::vector<const JobResult*> earlier;
  for (std::size_t i = 0; i + 1 < attempts_.size(); ++i) {
    earlier.push_back(&attempts_[i]->result());
  }
  return merge_attempts(earlier, live_->result());
}

}  // namespace flexmr::mr
