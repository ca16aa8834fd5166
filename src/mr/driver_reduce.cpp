#include "mr/driver_internal.hpp"

#include <algorithm>
#include <cmath>

namespace flexmr::mr {

void JobDriver::enqueue_reducers(std::uint32_t forced_total) {
  total_intermediate_ = 0;
  for (const MiB m : intermediate_on_node_) total_intermediate_ += m;

  std::uint32_t total = forced_total > 0 ? forced_total : job_.num_reducers;
  if (total == 0) {
    // Auto-sizing: one reducer per reducer_input_target MiB, at most one
    // wave across the cluster.
    total = static_cast<std::uint32_t>(
        std::ceil(total_intermediate_ / params_.reducer_input_target));
    total = std::clamp<std::uint32_t>(total, 1, rm_.total_slots());
  }
  // Commit point: auto-sizing clamps against *live* slots, which may
  // differ when a restarted AM replans — so the count is pinned, never
  // recomputed (forced_total is the journaled value coming back).
  if (journal_ != nullptr && forced_total == 0) {
    journal_->record_reduce_plan(total);
  }

  // Partition weights: uniform, or Zipf(s) for key-skewed jobs. Reducers
  // are dispatched largest-first (Hadoop sorts pending reduces by size for
  // the skewed case via partition sampling; FIFO for uniform).
  std::vector<double> weights(total, 1.0);
  if (job_.reduce_key_skew > 0.0) {
    for (std::uint32_t r = 0; r < total; ++r) {
      weights[r] =
          1.0 / std::pow(static_cast<double>(r + 1), job_.reduce_key_skew);
    }
  }
  double weight_sum = 0;
  for (const double w : weights) weight_sum += w;

  for (std::uint32_t r = 0; r < total; ++r) {
    auto task = std::make_unique<ReduceTask>();
    task->id = kReduceIdBase + r;
    task->share = weights[r] / weight_sum;
    task->input = total_intermediate_ * task->share;
    reduce_tasks_.push_back(std::move(task));
  }
  reduce_attempt_failures_.assign(reduce_tasks_.size(), 0);
}

bool JobDriver::dispatch_reduce(NodeId node) {
  // Reduce tasks bind to containers dynamically: the next pending reducer
  // goes to whichever container frees first — unless the scheduler's
  // placement policy declines this node (FlexMap's c^2 bias). Reducers
  // re-queued by node failures go first.
  if (!reduce_ready_) return false;
  const bool from_requeue = !reduce_requeue_.empty();
  if (!from_requeue && next_reducer_ >= reduce_tasks_.size()) return false;
  if (!reduce_force_dispatch_ && !scheduler_->accept_reducer(*this, node)) {
    // The paper's placement loop redraws immediately until some node
    // accepts; approximate that with a short retry instead of waiting a
    // full heartbeat (one pending retry event at a time). If several
    // consecutive retry rounds place nothing — a stale placement policy,
    // e.g. quotas computed before a node failure — bypass the bias so the
    // phase can never wedge.
    if (!reduce_reoffer_pending_) {
      reduce_reoffer_pending_ = true;
      sim_->schedule_after(1.0, [this]() {
        reduce_reoffer_pending_ = false;
        if (done_) return;
        // A wedge means nothing is running AND nothing got placed: queued
        // reducers waiting for busy fast nodes are fine — that wait is the
        // placement bias working as intended.
        if (running_reduce_count_ == 0 && running_map_count_ == 0 &&
            reducers_started_ == reducers_started_snapshot_) {
          if (++reduce_declined_rounds_ >= 5) reduce_force_dispatch_ = true;
        } else {
          reduce_declined_rounds_ = 0;
        }
        reducers_started_snapshot_ = reducers_started_;
        rm_.offer_all();
      });
    }
    return false;
  }
  std::size_t idx;
  if (from_requeue) {
    idx = reduce_requeue_.front();
    reduce_requeue_.erase(reduce_requeue_.begin());
  } else {
    idx = next_reducer_++;
  }
  ++reducers_started_;

  ReduceTask& task = *reduce_tasks_[idx];
  task.node = node;
  task.remote =
      (total_intermediate_ - intermediate_on_node_[node]) * task.share;
  ++running_reduce_count_;
  launch_attempt(task, params_.container_alloc_s + params_.jvm_startup_s,
                 [this, idx]() { reduce_attempt_fail(idx); },
                 [this, idx]() { reduce_fetch_start(idx); });
  if (tracer_ != nullptr) {
    tracer_->task_begin(obs::node_pid(node), ttok(task.id),
                        "reduce " + std::to_string(idx), "reduce",
                        task.dispatch_time,
                        {{"input_mib", task.input},
                         {"remote_mib", task.remote},
                         {"share", task.share},
                         {"requeued", from_requeue}});
    tracer_->task_child_begin(ttok(task.id), "startup", task.dispatch_time);
    ctr_.reduces_dispatched->inc();
  }
  return true;
}

void JobDriver::reduce_fetch_start(std::size_t idx) {
  ReduceTask& task = *reduce_tasks_[idx];
  task.phase = TaskPhase::kFetching;
  task.compute_start = sim_->now();
  task.failed_fetch_sources.clear();
  task.fetch_attempt = 0;
  if (injector_) {
    // One fetch stream per map-output host, drawn in ascending host order
    // (deterministic). A host that stopped responding fails its fetch
    // without an RNG draw; a responsive host fails with
    // fetch_failure_prob (connection reset, read timeout). The node-local
    // share needs no fetch.
    const double p = plan_.fetch_failure_prob;
    for (NodeId host = 0; host < cluster_->num_nodes(); ++host) {
      if (host == task.node) continue;
      if (intermediate_on_node_[host] <= 0.0) continue;
      if (!injector_->responsive(host)) {
        task.failed_fetch_sources.push_back(host);
      } else if (p > 0.0 && injector_->draw_fetch_failure()) {
        task.failed_fetch_sources.push_back(host);
      }
    }
  }
  const MiBps nic = cluster_->machine(task.node).spec().nic_bandwidth;
  const SimDuration fetch =
      task.remote / nic * (1.0 - params_.shuffle_overlap);
  if (tracer_ != nullptr) {
    tracer_->task_child_end(ttok(task.id), sim_->now());
    tracer_->task_child_begin(
        ttok(task.id), "shuffle-fetch", sim_->now(),
        {{"remote_mib", task.remote},
         {"failed_sources",
          static_cast<std::uint64_t>(task.failed_fetch_sources.size())}});
  }
  task.pending_event = sim_->schedule_after(
      fetch, [this, idx]() { reduce_fetch_done(idx); });
}

void JobDriver::reduce_fetch_done(std::size_t idx) {
  ReduceTask& task = *reduce_tasks_[idx];
  task.pending_event = kInvalidEvent;
  if (task.failed_fetch_sources.empty()) {
    reduce_compute_start(idx);
    return;
  }
  handle_fetch_failure(idx);
}

void JobDriver::handle_fetch_failure(std::size_t idx) {
  ReduceTask& task = *reduce_tasks_[idx];
  const NodeId source = task.failed_fetch_sources.front();
  ++task.fetch_attempt;
  const SimDuration backoff =
      plan_.fetch_retry_backoff_s *
      static_cast<double>(1u << std::min(task.fetch_attempt - 1, 10u));
  if (tracer_ != nullptr) {
    // Emit before the report below: it may stall this reducer and close
    // its span, and the failure instant belongs inside it.
    tracer_->task_instant(ttok(task.id), "fetch-failure", sim_->now(),
                          {{"source", source},
                           {"attempt", task.fetch_attempt},
                           {"backoff_s", backoff}});
    ctr_.fetch_failures->inc();
  }
  record_fault(faults::FaultEventType::kFetchFailure, source, task.id,
               task.fetch_attempt);
  report_fetch_failure(source);
  // The report may have re-opened the map phase and stalled this reducer
  // (or aborted the job): the retry loop dies with it, and a later
  // redispatch restarts the whole fetch.
  if (done_ || task.phase != TaskPhase::kFetching) return;
  task.pending_event =
      sim_->schedule_after(backoff, [this, idx]() { retry_fetch(idx); });
}

void JobDriver::retry_fetch(std::size_t idx) {
  ReduceTask& task = *reduce_tasks_[idx];
  task.pending_event = kInvalidEvent;
  const NodeId source = task.failed_fetch_sources.front();
  const double p = plan_.fetch_failure_prob;
  const bool fails = !injector_->responsive(source) ||
                     (p > 0.0 && injector_->draw_fetch_failure());
  if (fails) {
    handle_fetch_failure(idx);
    return;
  }
  // The retransfer succeeded (its volume is part of the base fetch window;
  // only the backoff delay is modeled). Move on to the next failed source.
  task.failed_fetch_sources.erase(task.failed_fetch_sources.begin());
  task.fetch_attempt = 0;
  if (task.failed_fetch_sources.empty()) {
    reduce_compute_start(idx);
  } else {
    handle_fetch_failure(idx);
  }
}

void JobDriver::report_fetch_failure(NodeId host) {
  // Hadoop's AM counts fetch-failure notifications per mapper; at
  // max_fetch_failures_per_map it declares the output lost and re-executes
  // the map ("Too many fetch-failures"). Reports are charged to the oldest
  // credited map on the host — deterministic, and matches Hadoop re-running
  // mappers one at a time rather than everything on the node.
  MapTask* victim = nullptr;
  for (auto& owned : map_tasks_) {
    MapTask& task = *owned;
    if (task.node != host || !task.credited || task.output_lost) continue;
    victim = &task;
    break;
  }
  if (victim == nullptr) return;
  if (map_fetch_reports_.size() < map_tasks_.size()) {
    map_fetch_reports_.resize(map_tasks_.size(), 0);
  }
  const std::uint32_t reports = ++map_fetch_reports_[victim->id];
  if (journal_ != nullptr) journal_->record_fetch_report(victim->id);
  if (reports < plan_.max_fetch_failures_per_map) return;

  // Too many fetch-failures: the attempt is retroactively FAILED. The
  // re-execution counts toward the per-BU attempt limit and the host's
  // blacklist score, exactly like a transient attempt failure.
  record_fault(faults::FaultEventType::kMapOutputLost, host, victim->id,
               reports);
  map_fetch_reports_[victim->id] = 0;
  const WorstUnit worst = charge_bu_failures(victim->bus);
  reopen_map_phase_for_lost_outputs();
  std::vector<BlockUnitId> reclaimed;
  lose_map_output(*victim, reclaimed);
  note_node_attempt_failure(host);
  abort_if_exhausted(worst);
  // The reclaimed BUs are unread again; if their blocks lost every
  // replica since the map ran, the input is gone.
  check_data_loss({}, reclaimed);
  if (!done_) scheduler_->on_attempt_failed(*this, host, reclaimed);
  reoffer_later();
}

double JobDriver::reduce_rate(const ReduceTask& task) const {
  return cluster_->machine(task.node).effective_ips() /
         (job_.reduce_cost * task.exec_noise);
}

void JobDriver::reduce_compute_start(std::size_t idx) {
  ReduceTask& task = *reduce_tasks_[idx];
  task.phase = TaskPhase::kComputing;
  if (tracer_ != nullptr) {
    tracer_->task_child_end(ttok(task.id), sim_->now());
    tracer_->task_child_begin(ttok(task.id), "compute", sim_->now());
  }
  if (task.input <= 0.0) {
    task.pending_event = kInvalidEvent;
    reduce_complete(idx);
    return;
  }
  start_compute(task, task.input, reduce_rate(task),
                [this, idx]() { reduce_attempt_fail(idx); },
                [this, idx]() { reduce_complete(idx); });
}

void JobDriver::reduce_complete(std::size_t idx) {
  ReduceTask& task = *reduce_tasks_[idx];
  task.phase = TaskPhase::kDone;
  task.pending_event = kInvalidEvent;
  --running_reduce_count_;

  record_attempt(task, TaskKind::kReduce, TaskStatus::kCompleted, task.input,
                 1.0);
  // Commit point: the reducer's output is durable (HDFS-committed).
  if (journal_ != nullptr) {
    journal_->record_reduce_commit(static_cast<std::uint32_t>(idx),
                                   task.node, task.input);
  }

  if (tracer_ != nullptr) {
    const TaskRecord& rec = result_.tasks.back();
    tracer_->task_end(ttok(rec.id), sim_->now(), {{"status", "completed"}});
    ctr_.reduces_completed->inc();
    auto& metrics = trace_->metrics();
    metrics.histogram("reduce.total_runtime_s").record(rec.total_runtime());
    metrics.histogram("reduce.input_mib").record(rec.input_mib);
  }

  ++reducers_done_;
  if (reducers_done_ == reduce_tasks_.size()) {
    finish_job();
    return;
  }
  rm_.release(task.node);
}

void JobDriver::requeue_reducer(std::size_t idx, const char* reason) {
  ReduceTask& task = *reduce_tasks_[idx];
  cancel_pending(task);
  if (tracer_ != nullptr && tracer_->task_open(ttok(task.id))) {
    tracer_->task_end(ttok(task.id), sim_->now(),
                      {{"status", "requeued"}, {"reason", reason}});
  }
  task.node = kInvalidNode;
  task.phase = TaskPhase::kStarting;
  task.integrator.reset();
  // A redispatched attempt that dies before its fetch starts must not
  // report the previous attempt's compute start.
  task.compute_start = 0;
  task.planned_fault = PlannedFault::kNone;
  task.fail_frac = 0;
  --running_reduce_count_;
  reduce_requeue_.push_back(idx);
}

}  // namespace flexmr::mr
