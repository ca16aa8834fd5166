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
      cluster_(&cluster),
      layout_(&layout),
      job_(std::move(job)),
      params_(params),
      scheduler_(&scheduler),
      plan_(std::move(plan)),
      trace_(trace),
      rng_(params.seed ^ 0x5ec0feed0a11fa17ULL) {
  FLEXMR_ASSERT_MSG(plan_.has_am_faults(),
                    "RecoveryRunner without AM faults; use JobDriver::run");
}

mr::JobResult RecoveryRunner::run() {
  FLEXMR_ASSERT_MSG(attempts_.empty(), "RecoveryRunner is one-shot");

  // Attempt 1 is a plain single-job driver: it owns the RM and arms the
  // cluster's interference models, exactly as a runner-less run would.
  auto first = std::make_unique<mr::JobDriver>(*sim_, *cluster_, *layout_,
                                               job_, params_, *scheduler_);
  first->install_faults(plan_);
  first->set_journal(&journal_);
  if (trace_ != nullptr) first->set_trace(trace_);
  current_ = first.get();
  attempts_.push_back(std::move(first));
  current_->start();

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
  attempt_records_.push_back(current_->result().am_attempts.back());

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
  mr::AmRecoveryBaton baton = current_->release_recovery();
  attempt_records_.back().restart_time = sim_->now();
  attempt_records_.back().replayed_units =
      static_cast<std::uint64_t>(baton.recovered.replayed_units());

  // Every successor allocates from attempt 1's surviving RM (YARN outlives
  // the application attempt); the offer stream re-points at it.
  yarn::ResourceManager& rm = attempts_.front()->resource_manager();
  auto next = std::make_unique<mr::JobDriver>(
      *sim_, *cluster_, *layout_, job_, params_, *scheduler_, rm);
  const std::uint32_t attempt_no = baton.next_attempt;
  next->adopt_recovery(std::move(baton));
  if (trace_ != nullptr) {
    mr::TraceNamespace ns;
    ns.token_base = kAttemptTokenStride * (attempt_no - 1);
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
  return mr::merge_attempts(earlier, std::move(merged), attempt_records_);
}

}  // namespace flexmr::recover
