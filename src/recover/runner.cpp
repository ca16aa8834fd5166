#include "recover/runner.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/session.hpp"

namespace flexmr::recover {

namespace {
/// Trace-token spacing between AM attempts: each attempt's task ids start
/// at 0 again (reduce tokens at 1'000'000), so successor attempts record
/// under disjoint token ranges inside the shared tracer.
constexpr std::uint64_t kAttemptTokenStride = 10'000'000ULL;
}  // namespace

RecoveryRunner::RecoveryRunner(Simulator& sim, cluster::Cluster& cluster,
                               const hdfs::FileLayout& layout,
                               mr::JobSpec job, mr::SimParams params,
                               mr::Scheduler& scheduler,
                               faults::FaultPlan plan,
                               obs::TraceSession* trace)
    : sim_(&sim),
      plan_(std::move(plan)),
      trace_(trace),
      rng_(params.seed ^ 0x5ec0feed0a11fa17ULL) {
  FLEXMR_ASSERT_MSG(plan_.has_am_faults(),
                    "RecoveryRunner without AM faults; use JobDriver::run");
  // Attempt 1 is a plain single-job driver: it owns the RM and arms the
  // cluster's interference models, exactly as a runner-less run would.
  auto first = std::make_unique<mr::JobDriver>(sim, cluster, layout,
                                               std::move(job), params,
                                               scheduler);
  first->install_faults(plan_);
  first->set_journal(&journal_);
  if (trace_ != nullptr) first->set_trace(trace_);
  current_ = first.get();
  attempts_.push_back(std::move(first));
}

mr::JobResult RecoveryRunner::run() {
  current_->start();  // one-shot: a second start() fails its assertion

  // Fixed crash times kill whichever attempt is live then; a crash landing
  // in AM downtime (or after the job finished) finds no AM to kill.
  for (const SimTime at : plan_.am_crashes) {
    sim_->schedule_at(at, [this]() { on_am_crash(); });
  }
  arm_mttf();

  while (!aborted_ && !(current_->done() && !restart_pending_)) {
    if (!sim_->step()) {
      throw InvariantError("simulation ran dry before job completion");
    }
    // Same pull-based sampling as JobDriver::run — never schedules events,
    // so event-queue counters match a trace-free run.
    if (trace_ != nullptr) trace_->metrics().maybe_sample(sim_->now());
  }

  mr::JobResult merged = merge();
  if (merged.aborted) {
    // Copy the reason out first: argument evaluation order is unspecified,
    // so passing merged.abort_reason alongside std::move(merged) could bind
    // the reference to a moved-from (empty) string.
    const std::string reason = merged.abort_reason;
    if (!merged.lost_blocks.empty()) {
      throw mr::DataLossError(reason, std::move(merged));
    }
    throw mr::JobAbortedError(reason, std::move(merged));
  }
  return merged;
}

void RecoveryRunner::on_am_crash() {
  // Finished, aborted in-attempt, or already crashed (downtime): inert.
  if (current_->done()) return;
  current_->crash_am();

  if (current_->am_attempt() >= plan_.am_max_attempts) {
    aborted_ = true;
    abort_reason_ = "AM crashed on attempt " +
                    std::to_string(current_->am_attempt()) + " of " +
                    std::to_string(plan_.am_max_attempts) +
                    " (am_max_attempts exhausted)";
    abort_time_ = sim_->now();
    return;
  }
  restart_pending_ = true;
  sim_->schedule_after(plan_.am_restart_delay_s, [this]() { restart(); });
}

void RecoveryRunner::restart() {
  // Every successor allocates from attempt 1's surviving RM (YARN outlives
  // the application attempt); the offer stream re-points at it.
  yarn::ResourceManager& rm = attempts_.front()->resource_manager();
  std::unique_ptr<mr::JobDriver> next = current_->successor(rm);
  if (trace_ != nullptr) {
    mr::TraceNamespace ns;
    ns.token_base = kAttemptTokenStride * (next->am_attempt() - 1);
    ns.register_gauges = false;  // gauges are per-driver; one copy suffices
    next->set_trace(trace_, ns);
  }
  mr::JobDriver* raw = next.get();
  rm.set_offer_handler([raw](NodeId node) { return raw->offer(node); });
  attempts_.push_back(std::move(next));
  current_ = raw;
  restart_pending_ = false;
  current_->start();
  arm_mttf();
}

void RecoveryRunner::arm_mttf() {
  if (plan_.am_crash_mttf_s <= 0.0) return;
  const SimTime at = sim_->now() + rng_.exponential(plan_.am_crash_mttf_s);
  const std::uint32_t attempt = current_->am_attempt();
  sim_->schedule_at(at, [this, attempt]() {
    // The draw was this attempt's lifetime; if a fixed crash already took
    // it (a successor is live), the stale draw must not fire on the
    // successor — it draws its own at registration.
    if (current_->am_attempt() != attempt) return;
    on_am_crash();
  });
}

mr::JobResult RecoveryRunner::merge() const {
  mr::JobResult merged = current_->result();

  if (aborted_) {
    // crash_am leaves no finish_time and no abort record; the runner is
    // the authority that declared the job dead.
    merged.aborted = true;
    merged.abort_reason = abort_reason_;
    faults::FaultEvent ev;
    ev.time = abort_time_;
    ev.type = faults::FaultEventType::kAbort;
    ev.attempts = current_->am_attempt();
    merged.fault_events.push_back(ev);
    const SimCounters counters = sim_->counters();
    merged.sim_events_fired = counters.fired;
    merged.sim_events_cancelled = counters.cancelled;
    merged.sim_queue_peak = counters.queue_peak;
  }

  std::vector<const mr::JobResult*> earlier;
  for (std::size_t i = 0; i + 1 < attempts_.size(); ++i) {
    earlier.push_back(&attempts_[i]->result());
  }
  return mr::merge_attempts(earlier, std::move(merged));
}

}  // namespace flexmr::recover
