#include "recover/runner.hpp"

#include "common/error.hpp"
#include "obs/session.hpp"

namespace flexmr::recover {

RecoveryRunner::RecoveryRunner(Simulator& sim, cluster::Cluster& cluster,
                               const hdfs::FileLayout& layout,
                               mr::JobSpec job, mr::SimParams params,
                               mr::Scheduler& scheduler,
                               faults::FaultPlan plan,
                               obs::TraceSession* trace)
    : sim_(&sim),
      plan_(std::move(plan)),
      trace_(trace),
      rng_(params.seed ^ 0x5ec0feed0a11fa17ULL),
      chain_(sim, std::make_unique<mr::JobDriver>(sim, cluster, layout,
                                                  std::move(job), params,
                                                  scheduler)) {
  if (!plan_.empty()) chain_.driver().install_faults(plan_);
  if (plan_.has_am_faults()) {
    chain_.enable_recovery({plan_.am_max_attempts, plan_.am_restart_delay_s});
  }
  if (trace_ != nullptr) chain_.set_trace(trace_, mr::TraceNamespace{});
}

mr::JobResult RecoveryRunner::run() {
  chain_.start();
  // Successors allocate from attempt 1's RM; its offers go to the live one.
  chain_.driver().resource_manager().set_offer_handler(
      [this](NodeId node) { return chain_.driver().offer(node); });

  // Fixed crash times kill whichever attempt is live then; a crash landing
  // in AM downtime (or after the job finished) finds no AM to kill.
  for (const SimTime at : plan_.am_crashes) {
    sim_->schedule_at(at, [this]() { chain_.crash(); });
  }
  std::uint32_t drawn_for = 0;  // the attempt whose lifetime is drawn
  while (!chain_.finished()) {
    // Each attempt draws its lifetime as it registers, before any event
    // after its start fires.
    if (chain_.driver().am_attempt() != drawn_for) {
      drawn_for = chain_.driver().am_attempt();
      arm_mttf();
    }
    if (!sim_->step()) {
      throw InvariantError("simulation ran dry before job completion");
    }
    // Pull-based sampling: the registry emits rows for cadence ticks the
    // simulator just crossed. Never schedules events, so the event-queue
    // counters in the golden hashes stay identical with tracing on/off.
    if (trace_ != nullptr) trace_->metrics().maybe_sample(sim_->now());
  }

  mr::JobResult merged = chain_.result();
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

void RecoveryRunner::arm_mttf() {
  if (plan_.am_crash_mttf_s <= 0.0) return;
  const SimTime at = sim_->now() + rng_.exponential(plan_.am_crash_mttf_s);
  const std::uint32_t attempt = chain_.driver().am_attempt();
  sim_->schedule_at(at, [this, attempt]() {
    // The draw was this attempt's lifetime; if a fixed crash already took
    // it (a successor is live), the stale draw must not fire on the
    // successor — it draws its own at registration.
    if (chain_.driver().am_attempt() != attempt) return;
    chain_.crash();
  });
}

}  // namespace flexmr::recover
