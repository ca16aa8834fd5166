#include "mr/driver_internal.hpp"

#include <cmath>

#include "obs/profiler.hpp"

namespace flexmr::mr {

JobDriver::JobDriver(Simulator& sim, cluster::Cluster& cluster,
                     const hdfs::FileLayout& layout, JobSpec job,
                     SimParams params, Scheduler& scheduler)
    : sim_(&sim),
      cluster_(&cluster),
      layout_(&layout),
      job_(std::move(job)),
      params_(params),
      scheduler_(&scheduler),
      index_(layout, cluster.num_nodes()),
      owned_rm_(std::make_unique<yarn::ResourceManager>(cluster)),
      rm_(*owned_rm_),
      rng_(params.seed ^ 0xf1e2d3c4b5a69788ULL),
      intermediate_on_node_(cluster.num_nodes(), 0.0),
      round_ips_(cluster.num_nodes()),
      pending_ips_samples_(cluster.num_nodes()) {
  FLEXMR_ASSERT_MSG(!layout.bus.empty(), "job has no input");
}

JobDriver::JobDriver(Simulator& sim, cluster::Cluster& cluster,
                     const hdfs::FileLayout& layout, JobSpec job,
                     SimParams params, Scheduler& scheduler,
                     yarn::ResourceManager& shared_rm)
    : sim_(&sim),
      cluster_(&cluster),
      layout_(&layout),
      job_(std::move(job)),
      params_(params),
      scheduler_(&scheduler),
      index_(layout, cluster.num_nodes()),
      rm_(shared_rm),
      rng_(params.seed ^ 0xf1e2d3c4b5a69788ULL),
      intermediate_on_node_(cluster.num_nodes(), 0.0),
      round_ips_(cluster.num_nodes()),
      pending_ips_samples_(cluster.num_nodes()) {
  FLEXMR_ASSERT_MSG(!layout.bus.empty(), "job has no input");
}

JobDriver::~JobDriver() {
  for (NodeId node = 0; node < speed_listener_ids_.size(); ++node) {
    cluster_->machine(node).remove_speed_listener(speed_listener_ids_[node]);
  }
}

void JobDriver::start() {
  FLEXMR_ASSERT_MSG(!started_, "JobDriver is one-shot");
  started_ = true;

  // Validate the plan against this cluster before any state changes.
  plan_.validate(cluster_->num_nodes());
  if (plan_.has_am_faults() && journal_ == nullptr) {
    throw ConfigError(
        "FaultPlan arms AM crashes but no recovery journal is installed; "
        "route the run through the recovery runner");
  }

  result_.benchmark = job_.name;
  result_.scheduler = scheduler_->name();
  result_.total_slots = rm_.total_slots();
  result_.seed = params_.seed;
  result_.fault_plan = plan_;
  result_.storage = layout_->storage;
  result_.submit_time = sim_->now();
  result_.map_phase_start = sim_->now();
  result_.am_restarts = am_attempt_ - 1;

  bu_attempt_failures_.assign(layout_->bus.size(), 0);
  node_failed_attempts_.assign(cluster_->num_nodes(), 0);
  blacklisted_.assign(cluster_->num_nodes(), 0);
  bu_done_.assign(layout_->bus.size(), 0);

  if (recovered_) {
    // Attempt-failure budgets and the blacklist they feed survive the AM:
    // a restarted AM must not grant a flaky BU or node a fresh retry
    // allowance (that would unbound the job's failure tolerance).
    for (const auto& [bu, n] : recovered_->bu_attempt_failures) {
      bu_attempt_failures_[bu] = n;
    }
    // (Per-reducer budgets are folded in by restore_from_journal once the
    // reduce plan exists and the vector is sized.)
    for (const auto& [node, n] : recovered_->node_failed_attempts) {
      node_failed_attempts_[node] = n;
      if (n >= plan_.blacklist_threshold) blacklisted_[node] = 1;
    }
  }

  // The live NameNode view only matters when nodes can die; without
  // faults the static layout is already the truth. A recovered attempt
  // adopts its predecessor's (the replica map must not forget deaths) —
  // also a shared-cluster job's, which its coordinator's node deaths built
  // without a plan of its own — and attaches its fresh block index to it.
  if (!plan_.empty() && !replica_mgr_) {
    replica_mgr_ = std::make_unique<hdfs::ReplicaManager>(
        *layout_, cluster_->num_nodes());
    if (plan_.re_replication) {
      // Under rs(k,m) the pipeline reconstructs parts instead of copying
      // replicas; its budget comes from the storage policy so repair
      // traffic is priced against PR 4's re-replication knob.
      replica_mgr_->enable_re_replication(
          *sim_, layout_->storage.erasure()
                     ? layout_->storage.repair_bandwidth_mibps
                     : plan_.re_replication_bandwidth_mibps);
    }
  }
  if (replica_mgr_) {
    replica_mgr_->attach(index_);
    replica_mgr_->set_copy_complete_handler(
        [this](std::uint32_t block, NodeId target) {
          on_block_re_replicated(block, target);
        });
  }
  if (!plan_.empty()) {
    if (!injector_) {
      injector_ = std::make_unique<faults::FaultInjector>(plan_, params_.seed);
    }
    injector_->set_crash_handler([this](NodeId node, bool silent) {
      if (done_) return;
      record_fault(faults::FaultEventType::kCrash, node);
      if (silent) {
        on_node_silent(node);
      } else {
        fail_node(node);
      }
    });
    injector_->set_rejoin_handler(
        [this](NodeId node) { on_node_rejoin(node); });
    injector_->set_disk_fault_handler(
        [this](NodeId node, std::uint32_t disk) {
          on_disk_fault(node, disk);
        });
    if (!recovered_) {
      // A restarted AM does NOT reseed liveness: heartbeats missed during
      // AM downtime count toward silent-crash expiry, exactly as a real
      // RM's NM-liveness view keeps running while the AM is down.
      for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
        rm_.record_heartbeat(node, sim_->now());
      }
    }
  }

  if (owned_rm_) {
    // Single-job mode: this driver owns interference and the offer loop.
    cluster_->start(*sim_, rng_);
    rm_.set_offer_handler(
        [this](NodeId node) { return handle_offer(node); });
  }
  speed_listener_ids_.reserve(cluster_->num_nodes());
  for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
    speed_listener_ids_.push_back(cluster_->machine(node).add_speed_listener(
        [this](NodeId n, MiBps) { on_speed_change(n); }));
  }

  if (recovered_) restore_from_journal();

  trace_setup();

  if (recovered_) {
    record_fault(faults::FaultEventType::kAmRestart, kInvalidNode,
                 kInvalidTask, am_attempt_);
    scheduler_->on_recovery(*this, *recovered_);
  } else {
    scheduler_->on_job_start(*this);
  }

  // The injector is armed exactly once per job: a recovered attempt
  // inherits its predecessor's armed injector (pending crash/rejoin
  // events and exhausted probability draws included).
  if (injector_ && am_attempt_ == 1) injector_->arm(*sim_, *cluster_);

  reoffer_later();
  sim_->schedule_after(params_.heartbeat_period_s, [this]() { heartbeat(); });

  // A shared cluster's node that died while no attempt of this job was up
  // (before admission, or during AM downtime) takes the loss path now.
  for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
    if (rm_.is_dead(node)) notify_node_failure(node);
  }
}

bool JobDriver::handle_offer(NodeId node) {
  if (done_) return false;
  if (node_blacklisted(node)) return false;
  if (!map_phase_done_) {
    auto launch = scheduler_->on_slot_free(*this, node);
    if (launch) {
      dispatch_map(node, std::move(*launch));
      return true;
    }
    return false;
  }
  return dispatch_reduce(node);
}

void JobDriver::finish_job() {
  trace_finish();
  done_ = true;
  result_.finish_time = sim_->now();
  if (result_.map_phase_end == 0) result_.map_phase_end = sim_->now();
  record_sim_counters();
}

void JobDriver::record_sim_counters() {
  // In shared-cluster mode the simulator is shared, so these span every
  // co-running job.
  const SimCounters counters = sim_->counters();
  result_.sim_events_fired = counters.fired;
  result_.sim_events_cancelled = counters.cancelled;
  result_.sim_queue_peak = counters.queue_peak;
}

void JobDriver::heartbeat() {
  if (done_) return;
  // The whole per-heartbeat control bundle: liveness scan, Eq. 3 sampling
  // walk, per-node scheduler callbacks and the rm/offer_all re-offer.
  FLEXMR_PROF_SCOPE("mr/heartbeat");

  // Liveness: NodeManager heartbeats arrive from every responsive node;
  // a node whose last heartbeat is older than the liveness timeout is
  // declared lost. This is the only detection path for *silent* crashes —
  // until it fires, the node's frozen tasks look like slow stragglers.
  if (injector_) {
    const SimTime now = sim_->now();
    for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
      if (node_lost(node)) continue;
      if (injector_->responsive(node)) {
        rm_.record_heartbeat(node, now);
      } else if (now - rm_.last_heartbeat(node) >=
                 plan_.node_liveness_timeout_s - 1e-9) {
        fail_node(node);
      }
    }
    if (done_) return;  // detection may have aborted the job
  }

  // Per node: average the Eq. 3 IPS samples of this round — completions
  // since the last round plus containers that have been running for at
  // least a full heartbeat period (younger containers are still dominated
  // by startup and report nothing useful yet). The previous estimate is
  // retained when a node produced no sample this round.
  hb_ips_sum_.assign(cluster_->num_nodes(), 0.0);
  hb_ips_cnt_.assign(cluster_->num_nodes(), 0);
  // Live ids are ascending, so per-node sample accumulation order (and
  // thus FP rounding) is identical to the historical all-tasks scan.
  for (const TaskId id : live_map_ids_) {
    const MapTask& task = *map_tasks_[id];
    if (task.phase != TaskPhase::kComputing) continue;
    // A silently-dead node reports nothing; its frozen containers keep
    // their last known progress but produce no fresh samples.
    if (node_silent(task.node)) continue;
    const SimDuration computing = sim_->now() - task.compute_start;
    if (computing < params_.heartbeat_period_s) continue;
    const MiB read = task.integrator->done(sim_->now());
    if (read <= 0) continue;
    hb_ips_sum_[task.node] += read / computing;
    ++hb_ips_cnt_[task.node];
  }
  for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
    for (const double sample : pending_ips_samples_[node]) {
      hb_ips_sum_[node] += sample;
      ++hb_ips_cnt_[node];
    }
    pending_ips_samples_[node].clear();
    if (hb_ips_cnt_[node] > 0) {
      round_ips_[node] = hb_ips_sum_[node] / hb_ips_cnt_[node];
      ++cluster_view_version_;
    }
    scheduler_->on_heartbeat(*this, node);
  }

  // Re-offer idle slots: speculation/mitigation opportunities appear as
  // progress evolves, not only when slots free up.
  rm_.offer_all();

  // Deadlock guard: unprocessed input, nothing running, and every slot
  // declined means the scheduler wedged itself. A cluster with zero live
  // slots is excluded — that is not a scheduler wedge but a fault state
  // (either a rejoin is pending or fail_node already aborted the job).
  // Likewise an unreadable block (no live replica, or fewer than k live
  // parts under rs(k,m)): its BUs are untakeable until a holder rejoins
  // or repair restores quorum — a storage stall, not a scheduler bug.
  if (!map_phase_done_ && running_map_count_ == 0 &&
      index_.unprocessed() > 0 && rm_.total_slots() > 0 &&
      rm_.total_free() == rm_.total_slots() &&
      (!replica_mgr_ || !replica_mgr_->has_unreadable_blocks())) {
    throw InvariantError("scheduler declined all slots with work pending");
  }

  if (tracer_ != nullptr) {
    ctr_.heartbeats->inc();
    tracer_->counter(trace_ns_.job_pid, "running_maps", sim_->now(),
                     static_cast<double>(running_map_count_));
    tracer_->counter(trace_ns_.job_pid, "running_reduces", sim_->now(),
                     static_cast<double>(running_reduce_count_));
    tracer_->counter(trace_ns_.job_pid, "free_containers", sim_->now(),
                     static_cast<double>(rm_.total_free()));
  }

  // Journal maintenance piggybacks on the heartbeat (the effective cadence
  // quantizes to heartbeat periods): fold the log tail into the snapshot
  // so replay cost stays bounded by job *width*, not length.
  if (journal_ != nullptr && plan_.am_snapshot_interval_s > 0.0 &&
      sim_->now() - journal_->last_snapshot_at() >=
          plan_.am_snapshot_interval_s - 1e-9) {
    journal_->snapshot(sim_->now());
  }

  sim_->schedule_after(params_.heartbeat_period_s, [this]() { heartbeat(); });
}

void JobDriver::on_speed_change(NodeId node) {
  // The cluster keeps changing speeds after this job finished (shared
  // simulations); a finished job has nothing left to re-rate. Tasks on a
  // silently-dead node are frozen at rate 0 and must not be re-rated.
  if (done_ || node_silent(node)) return;
  for (const TaskId id : live_map_ids_) {
    MapTask& task = *map_tasks_[id];
    if (task.node != node || task.phase != TaskPhase::kComputing) continue;
    rerate(task, map_rate(task), [this, id]() { map_complete(id); });
    ++map_state_version_;
  }
  for (std::size_t idx = 0; idx < reduce_tasks_.size(); ++idx) {
    ReduceTask& task = *reduce_tasks_[idx];
    if (task.node != node || task.phase != TaskPhase::kComputing) continue;
    rerate(task, reduce_rate(task), [this, idx]() { reduce_complete(idx); });
  }
}

std::optional<MiBps> JobDriver::observed_ips(NodeId node) const {
  FLEXMR_ASSERT(node < round_ips_.size());
  return round_ips_[node];
}

double JobDriver::map_phase_progress() const {
  return static_cast<double>(processed_bus_) /
         static_cast<double>(layout_->bus.size());
}

MiB JobDriver::next_reducer_input() const {
  if (!reduce_requeue_.empty()) {
    return reduce_tasks_[reduce_requeue_.front()]->input;
  }
  if (next_reducer_ < reduce_tasks_.size()) {
    return reduce_tasks_[next_reducer_]->input;
  }
  return 0;
}

bool JobDriver::block_readable(std::uint32_t block) const {
  // Readable = enough live holders to serve (or decode) the data: one
  // whole replica, or any k of the k+m parts under rs(k,m).
  return !replica_mgr_ ||
         replica_mgr_->live_holder_count(block) >= layout_->min_live();
}

void JobDriver::launch_attempt(Attempt& a, SimDuration startup,
                               Simulator::Handler fail,
                               Simulator::Handler ready) {
  a.dispatch_time = sim_->now();
  if (params_.exec_noise_sigma > 0) {
    const double sigma = params_.exec_noise_sigma;
    a.exec_noise = std::exp(-sigma * sigma / 2.0 + sigma * rng_.normal());
  }
  a.planned_fault = PlannedFault::kNone;
  a.fail_frac = 0;
  if (injector_ && injector_->draw_launch_failure(a.node)) {
    a.planned_fault = PlannedFault::kLaunchFail;
  } else if (injector_ && injector_->draw_attempt_failure(a.node)) {
    a.planned_fault = PlannedFault::kAttemptFail;
    a.fail_frac = injector_->draw_failure_fraction();
  }
  if (injector_ && !injector_->responsive(a.node)) {
    // Dispatched onto a silently-dead node (the AM has not noticed yet):
    // the container never comes up. The attempt freezes in kStarting until
    // heartbeat expiry declares the node lost and reclaims its work.
  } else if (a.planned_fault == PlannedFault::kLaunchFail) {
    a.pending_event =
        sim_->schedule_after(params_.container_alloc_s, std::move(fail));
  } else {
    a.pending_event = sim_->schedule_after(startup, std::move(ready));
  }
}

void JobDriver::start_compute(Attempt& a, MiB size, double rate,
                              Simulator::Handler fail,
                              Simulator::Handler done) {
  a.integrator.emplace(size, rate, sim_->now());
  const auto eta = a.integrator->eta(sim_->now());
  FLEXMR_ASSERT_MSG(eta.has_value(), "task stalled at zero rate");
  if (a.planned_fault == PlannedFault::kAttemptFail) {
    // The attempt dies fail_frac of the way to its projected completion
    // (wall-clock moment — later speed changes re-rate the integrator but
    // do not move the death).
    const SimTime fail_at = sim_->now() + a.fail_frac * (*eta - sim_->now());
    a.pending_event = sim_->schedule_at(fail_at, std::move(fail));
  } else {
    a.pending_event = sim_->schedule_at(*eta, std::move(done));
  }
}

void JobDriver::rerate(Attempt& a, double rate, Simulator::Handler done) {
  a.integrator->set_rate(sim_->now(), rate);
  // A doomed attempt dies at its pre-drawn wall-clock moment; only the
  // progress it wastes is re-rated, not the death itself.
  if (a.planned_fault == PlannedFault::kAttemptFail) return;
  cancel_pending(a);
  const auto eta = a.integrator->eta(sim_->now());
  FLEXMR_ASSERT_MSG(eta.has_value(), "task stalled at zero rate");
  a.pending_event = sim_->schedule_at(*eta, std::move(done));
}

void JobDriver::cancel_pending(Attempt& a) {
  if (a.pending_event == kInvalidEvent) return;
  sim_->cancel(a.pending_event);
  a.pending_event = kInvalidEvent;
}

MiB JobDriver::read_so_far(const Attempt& a) const {
  return a.integrator ? a.integrator->done(sim_->now()) : 0.0;
}

TaskRecord& JobDriver::record_attempt(const Attempt& a, TaskKind kind,
                                      TaskStatus status, MiB input,
                                      double phase_progress) {
  TaskRecord& rec = result_.tasks.emplace_back();
  rec.id = a.id;
  rec.node = a.node;
  rec.kind = kind;
  rec.status = status;
  rec.dispatch_time = a.dispatch_time;
  rec.compute_start = a.compute_start;
  rec.end_time = sim_->now();
  rec.input_mib = input;
  rec.phase_progress_at_end = phase_progress;
  return rec;
}

}  // namespace flexmr::mr
