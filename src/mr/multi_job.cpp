#include "mr/multi_job.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/session.hpp"

namespace flexmr::mr {

const char* to_string(SharePolicy policy) {
  switch (policy) {
    case SharePolicy::kFifo:
      return "fifo";
    case SharePolicy::kFair:
      return "fair";
    case SharePolicy::kWeightedFair:
      return "weighted-fair";
  }
  return "unknown";
}

MultiJobCoordinator::MultiJobCoordinator(Simulator& sim,
                                         cluster::Cluster& cluster,
                                         SharePolicy policy)
    : sim_(&sim),
      cluster_(&cluster),
      policy_(policy),
      rm_(cluster),
      rng_(0x5eedc0ffee123ULL) {}

std::size_t MultiJobCoordinator::submit(const hdfs::FileLayout& layout,
                                        JobSpec spec, SimParams params,
                                        Scheduler& scheduler,
                                        SimTime submit_time, double weight) {
  if (!(weight > 0.0)) {
    throw ConfigError("job weight must be positive");
  }
  Entry entry;
  entry.chain = std::make_unique<AmAttemptChain>(
      *sim_, std::make_unique<JobDriver>(*sim_, *cluster_, layout,
                                         std::move(spec), params, scheduler,
                                         rm_));
  entry.submit_time = submit_time;
  entry.weight = weight;
  jobs_.push_back(std::move(entry));
  const std::size_t j = jobs_.size() - 1;
  if (started_) {
    // Submit-while-running: the cluster is live, so register the job's
    // start directly (a submit time already in the past starts it now).
    sim_->schedule_at(std::max(submit_time, sim_->now()),
                      [this, j]() { start_job(j); });
  }
  return j;
}

void MultiJobCoordinator::schedule_node_failure(NodeId node, SimTime time) {
  FLEXMR_ASSERT_MSG(!started_, "schedule failures before start");
  if (node >= cluster_->num_nodes()) {
    throw ConfigError("failure injected on unknown node " +
                      std::to_string(node));
  }
  if (time < 0) {
    throw ConfigError("failure time must be non-negative");
  }
  failures_.emplace_back(node, time);
}

void MultiJobCoordinator::set_am_recovery(AmBudget budget) {
  // Every schedule_am_crash before start() queued into am_crashes_, and
  // its job's chain took the budget then.
  FLEXMR_ASSERT_MSG(!started_ && am_crashes_.empty(),
                    "set_am_recovery before start and schedule_am_crash");
  if (budget.max_attempts == 0) {
    throw ConfigError("AM max_attempts must be > 0");
  }
  if (!(budget.restart_delay_s >= 0)) {
    throw ConfigError("AM restart delay must be non-negative");
  }
  am_budget_ = budget;
}

void MultiJobCoordinator::schedule_am_crash(std::size_t job, SimTime time) {
  if (job >= jobs_.size()) {
    throw ConfigError("AM crash scheduled for unknown job " +
                      std::to_string(job));
  }
  if (time < 0) {
    throw ConfigError("AM crash time must be non-negative");
  }
  AmAttemptChain& chain = *jobs_[job].chain;
  // The journal must be writing from the job's first commit on, so the
  // first kill for a job has to beat the job's own start.
  if (!chain.recoverable()) chain.enable_recovery(am_budget_);
  if (started_) {
    sim_->schedule_at(std::max(time, sim_->now()),
                      [&chain]() { chain.crash(); });
  } else {
    am_crashes_.emplace_back(job, time);
  }
}

void MultiJobCoordinator::set_trace(obs::TraceSession* trace) {
  FLEXMR_ASSERT_MSG(!started_, "set_trace before start");
  trace_ = trace;
}

void MultiJobCoordinator::set_preemption(PreemptionConfig config) {
  FLEXMR_ASSERT_MSG(!started_, "set_preemption before start");
  if (config.enabled) {
    if (!(config.period_s > 0)) {
      throw ConfigError("preemption period must be positive");
    }
    if (config.over_share_factor < 1.0) {
      throw ConfigError("over_share_factor must be >= 1");
    }
  }
  preemption_ = config;
}

void MultiJobCoordinator::start() {
  FLEXMR_ASSERT_MSG(!started_, "start is one-shot");
  started_ = true;

  cluster_->start(*sim_, rng_);
  rm_.set_offer_handler([this](NodeId node) { return handle_offer(node); });
  rm_.set_preemption_handler(
      [this](std::uint32_t want) { return handle_preemption(want); });
  trace_setup();

  for (const auto& [node, time] : failures_) {
    sim_->schedule_at(time, [this, node]() { on_node_failure(node); });
  }
  for (const auto& [job, time] : am_crashes_) {
    AmAttemptChain& chain = *jobs_[job].chain;
    sim_->schedule_at(time, [&chain]() { chain.crash(); });
  }
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    sim_->schedule_at(jobs_[j].submit_time, [this, j]() { start_job(j); });
  }
  if (preemption_.enabled) {
    sim_->schedule_after(preemption_.period_s,
                         [this]() { preemption_pass(); });
  }
}

void MultiJobCoordinator::start_job(std::size_t j) {
  AmAttemptChain& chain = *jobs_[j].chain;
  if (trace_ != nullptr) {
    TraceNamespace ns;
    ns.job_pid = obs::service_job_pid(j);
    ns.token_base = static_cast<std::uint64_t>(j) * obs::kServiceTokenStride;
    ns.label = "job " + std::to_string(j) + ": " + chain.driver().job().name;
    // Service-level gauges live on the coordinator (see trace_setup).
    ns.register_gauges = false;
    chain.set_trace(trace_, std::move(ns));
  }
  // A job admitted after a crash learns of the dead node at the end of its
  // start(), before any offer can try to place work there.
  chain.start();
}

bool MultiJobCoordinator::handle_offer(NodeId node) {
  // Candidate jobs: started, unfinished — ordered by policy. The order is
  // a member buffer and std::sort does not allocate; ties fall back to the
  // job index, as a stable sort of the index-ordered candidates would.
  // (The RM's offer guard keeps this from re-entering.)
  offer_order_.clear();
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].chain->running()) offer_order_.push_back(j);
  }
  if (policy_ == SharePolicy::kFair) {
    std::sort(offer_order_.begin(), offer_order_.end(),
              [this](std::size_t a, std::size_t b) {
                const std::uint32_t ua = driver(a).slots_in_use();
                const std::uint32_t ub = driver(b).slots_in_use();
                return ua != ub ? ua < ub : a < b;
              });
  } else if (policy_ == SharePolicy::kWeightedFair) {
    std::sort(offer_order_.begin(), offer_order_.end(),
              [this](std::size_t a, std::size_t b) {
                const double ua = weighted_usage(a);
                const double ub = weighted_usage(b);
                return ua != ub ? ua < ub : a < b;
              });
  }
  for (const std::size_t j : offer_order_) {
    if (driver(j).offer(node)) return true;
  }
  return false;
}

double MultiJobCoordinator::weighted_usage(std::size_t j) const {
  return static_cast<double>(driver(j).slots_in_use()) / jobs_[j].weight;
}

void MultiJobCoordinator::on_node_failure(NodeId node) {
  // Cluster-level, exactly once: repeated injections (or overlapping
  // schedules) of the same node are collapsed here, not forwarded N times.
  // Jobs not running now (unadmitted, or AM down) catch up at their start.
  if (rm_.is_dead(node)) return;
  rm_.mark_dead(node);
  for (auto& entry : jobs_) {
    if (entry.chain->running()) entry.chain->driver().notify_node_failure(node);
  }
  // One deferred re-offer for the whole cluster (drivers suppress theirs):
  // survivors pick up the reclaimed work in policy order.
  sim_->schedule_after(0.0, [this]() { rm_.offer_all(); });
}

void MultiJobCoordinator::preemption_pass() {
  // Weighted fair share of each active job; a job under its share with
  // work still pending files a demand, and the RM claws containers back
  // from whoever is furthest over share.
  std::vector<std::size_t> active;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].chain->running()) active.push_back(j);
  }
  if (active.size() >= 2) {
    double sum_w = 0.0;
    for (const std::size_t j : active) sum_w += jobs_[j].weight;
    const double total = static_cast<double>(rm_.total_slots());
    std::uint32_t deficit = 0;
    for (const std::size_t j : active) {
      const JobDriver& d = driver(j);
      const bool demand =
          d.unassigned_bus() > 0 || d.next_reducer_input() > 0;
      if (!demand) continue;
      const double share = total * jobs_[j].weight / sum_w;
      const double gap = std::floor(share) -
                         static_cast<double>(d.slots_in_use());
      if (gap > 0) deficit += static_cast<std::uint32_t>(gap);
    }
    if (deficit > 0) {
      rm_.preempt(std::min(deficit, preemption_.max_kills_per_round));
    }
  }
  sim_->schedule_after(preemption_.period_s, [this]() { preemption_pass(); });
}

std::uint32_t MultiJobCoordinator::handle_preemption(std::uint32_t want) {
  std::vector<std::size_t> active;
  double sum_w = 0.0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    if (jobs_[j].chain->running()) {
      active.push_back(j);
      sum_w += jobs_[j].weight;
    }
  }
  if (active.size() < 2 || sum_w <= 0.0) return 0;
  // Most-over-share victims first.
  std::stable_sort(active.begin(), active.end(),
                   [this](std::size_t a, std::size_t b) {
                     return weighted_usage(a) > weighted_usage(b);
                   });
  const double total = static_cast<double>(rm_.total_slots());
  std::uint32_t reclaimed = 0;
  for (const std::size_t j : active) {
    if (reclaimed >= want) break;
    JobDriver& d = driver(j);
    const double share = total * jobs_[j].weight / sum_w;
    const double limit = share * preemption_.over_share_factor;
    while (reclaimed < want &&
           static_cast<double>(d.slots_in_use()) > limit) {
      if (!d.preempt_one_map()) break;  // Only reducers left: exempt.
      ++reclaimed;
      ++preemption_kills_;
      if (ctr_preemptions_ != nullptr) ctr_preemptions_->inc();
    }
  }
  return reclaimed;
}

void MultiJobCoordinator::trace_setup() {
  if (trace_ == nullptr) return;
  obs::EventTracer& tracer = trace_->tracer();
  tracer.set_clock([this]() { return sim_->now(); });
  if (!failures_.empty()) {
    // Drivers only name the fault track when they own an injector; the
    // coordinator's centralized crashes still record there.
    tracer.set_process_name(obs::kFaultsPid, "fault injector");
    tracer.set_thread_name(obs::kFaultsPid, 0, "ground truth");
  }

  // The metrics column layout freezes at the first sampled row, but jobs
  // register their instruments only when they start — possibly long after
  // sampling began — so the driver's instruments are registered here.
  auto& metrics = trace_->metrics();
  JobDriver::register_instruments(metrics);
  ctr_preemptions_ = &metrics.counter("preemptions");

  // Service-level gauges, registered once (drivers skip theirs in shared
  // sessions — gauges do not dedupe). The coordinator must outlive every
  // sample taken from the session.
  metrics.register_gauge("cluster_utilization", [this]() {
    const double total = static_cast<double>(rm_.total_slots());
    return total > 0 ? (total - static_cast<double>(rm_.total_free())) / total
                     : 0.0;
  });
  metrics.register_gauge("rm_free_containers", [this]() {
    return static_cast<double>(rm_.total_free());
  });
  metrics.register_gauge("active_jobs", [this]() {
    std::size_t active = 0;
    for (const auto& entry : jobs_) {
      if (entry.chain->running()) ++active;
    }
    return static_cast<double>(active);
  });
}

bool MultiJobCoordinator::all_done() const {
  return std::all_of(jobs_.begin(), jobs_.end(),
                     [](const Entry& e) { return e.chain->finished(); });
}

std::vector<JobResult> MultiJobCoordinator::run_all() {
  FLEXMR_ASSERT_MSG(!ran_ && !started_, "run_all is one-shot");
  FLEXMR_ASSERT_MSG(!jobs_.empty(), "no jobs submitted");
  ran_ = true;

  start();
  while (!all_done()) {
    if (!sim_->step()) {
      throw InvariantError("simulation ran dry with unfinished jobs");
    }
    if (trace_ != nullptr) trace_->metrics().maybe_sample(sim_->now());
  }
  if (trace_ != nullptr) trace_->metrics().sample_now(sim_->now());

  std::vector<JobResult> results;
  results.reserve(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    results.push_back(result(j));
  }
  return results;
}

}  // namespace flexmr::mr
