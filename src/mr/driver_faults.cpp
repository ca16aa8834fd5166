#include "mr/driver_internal.hpp"

#include <algorithm>

namespace flexmr::mr {

void JobDriver::install_faults(faults::FaultPlan plan) {
  FLEXMR_ASSERT_MSG(!started_, "install faults before start()");
  FLEXMR_ASSERT_MSG(owned_rm_ != nullptr,
                    "install_faults is for single-job mode (a shared-RM "
                    "coordinator owns cluster-level fault state)");
  plan_ = std::move(plan);
}

void JobDriver::record_fault(faults::FaultEventType type, NodeId node,
                             TaskId task, std::uint32_t attempts,
                             std::uint32_t block) {
  result_.fault_events.push_back(
      faults::FaultEvent{sim_->now(), type, node, task, attempts, block});
  if (tracer_ != nullptr) {
    obs::TraceArgs args;
    if (node != kInvalidNode) args.emplace_back("node", node);
    if (task != kInvalidTask) args.emplace_back("task", task);
    if (attempts != 0) args.emplace_back("attempts", attempts);
    if (block != faults::kInvalidBlock) args.emplace_back("block", block);
    tracer_->instant({obs::kFaultsPid, 0}, faults::to_string(type), "fault",
                     sim_->now(), std::move(args));
    ctr_.fault_events->inc();
  }
}

void JobDriver::ensure_replica_manager() {
  if (replica_mgr_) return;
  // Created on demand by coordinator-delivered failures: reflects the full
  // static layout, then the on_node_lost calls that follow peel off dead
  // holders. No re-replication — that pipeline belongs to a per-driver
  // fault plan, which a shared-RM coordinator does not install.
  replica_mgr_ = std::make_unique<hdfs::ReplicaManager>(
      *layout_, cluster_->num_nodes());
  replica_mgr_->attach(index_);
}

void JobDriver::notify_node_failure(NodeId node) {
  FLEXMR_ASSERT_MSG(started_, "notify_node_failure before start()");
  // A coordinator marked the node dead on the shared RM exactly once and
  // schedules the single cluster-wide re-offer itself; this job records
  // the crash + its own detection and cleans up its containers. Idempotent
  // per node; also delivered at start() to jobs admitted after the death.
  if (done_ || node_lost(node)) return;
  ensure_replica_manager();
  record_fault(faults::FaultEventType::kCrash, node);
  fail_node(node, /*schedule_reoffer=*/false);
}

void JobDriver::fail_node(NodeId node, bool schedule_reoffer) {
  // Guard on the job's NameNode view, not the RM: with a shared RM another
  // job's driver may already have marked the node dead, but this job's
  // tasks there still need cleaning up.
  if (done_ || node_lost(node)) return;
  FLEXMR_ASSERT(replica_mgr_ != nullptr);
  if (!rm_.is_dead(node)) rm_.mark_dead(node);
  record_fault(faults::FaultEventType::kDetected, node);
  // Pre-crash speed estimates describe a gone incarnation; a rejoined
  // node must be re-measured from scratch.
  round_ips_[node].reset();
  pending_ips_samples_[node].clear();
  ++cluster_view_version_;

  // NameNode first: the node's replicas leave the live view (and with it
  // the index's local pools) before any BU is put back, so reclaimed work
  // can only be re-taken from surviving holders. From here on the node is
  // lost.
  hdfs::ReplicaManager::NodeLossReport replica_report =
      replica_mgr_->on_node_lost(node);
  for (const std::uint32_t block : replica_report.lost) {
    record_fault(layout_->storage.erasure()
                     ? faults::FaultEventType::kPartLost
                     : faults::FaultEventType::kReplicaLost,
                 node, kInvalidTask, 0, block);
  }

  std::vector<BlockUnitId> reclaimed;

  // 1. Kill the node's running map containers. Work covered by a living
  //    speculative twin survives with the twin; everything else returns
  //    to the pool.
  for (auto& owned : map_tasks_) {
    MapTask& task = *owned;
    if (task.node != node || task.phase == TaskPhase::kDone) continue;
    kill_map(task, TaskStatus::kKilled, "node lost", ctr_.maps_killed);
    hand_on_bus(task, node, reclaimed);
  }

  // 2. Re-queue the node's dispatched reducers, whichever phase the job
  //    is in: a map phase re-opened by an earlier loss leaves computing
  //    reducers dispatched.
  for (std::size_t idx = 0; idx < reduce_tasks_.size(); ++idx) {
    const ReduceTask& task = *reduce_tasks_[idx];
    if (task.node != node || task.phase == TaskPhase::kDone) continue;
    requeue_reducer(idx, "node lost");
  }

  // 3. Lost map outputs: every credited map on the node re-executes while
  //    the shuffle still needs them — before the reduce phase is planned,
  //    or while some reducer has not finished fetching. The latter
  //    re-opens the map phase for exactly those inputs, stalling every
  //    pre-compute reducer; reducers that already hold all their data
  //    keep computing.
  const auto outputs_needed = [this]() {
    return std::any_of(reduce_tasks_.begin(), reduce_tasks_.end(),
                       [](const auto& owned) {
                         return owned->phase == TaskPhase::kStarting ||
                                owned->phase == TaskPhase::kFetching;
                       });
  };
  if (!job_.map_only() &&
      (!map_phase_done_ ||
       (intermediate_on_node_[node] > 0 && outputs_needed()))) {
    if (map_phase_done_) reopen_map_phase_for_lost_outputs();
    for (auto& owned : map_tasks_) {
      MapTask& task = *owned;
      if (task.node != node || !task.credited || task.output_lost) continue;
      lose_map_output(task, reclaimed);
    }
    intermediate_on_node_[node] = 0.0;
  }

  scheduler_->on_node_failed(*this, node, reclaimed);
  // Data-loss sweep: blocks that just dropped below read quorum, plus
  // blocks whose BUs became unread again through the reclaims above
  // (their replicas may have been lost in *earlier* failures).
  check_data_loss(std::move(replica_report.zero), reclaimed);
  if (!done_ && rm_.total_slots() == 0 &&
      (!injector_ || !injector_->rejoin_pending())) {
    abort_job("every node in the cluster failed");
    return;
  }
  if (schedule_reoffer) reoffer_later();
}

void JobDriver::lose_map_output(MapTask& task,
                                std::vector<BlockUnitId>& reclaimed) {
  if (tracer_ != nullptr) {
    tracer_->instant({obs::node_pid(task.node), 0}, "map-output-lost",
                     "fault", sim_->now(),
                     {{"task", task.id},
                      {"bus", static_cast<std::uint64_t>(task.bus.size())}});
  }
  task.output_lost = true;
  task.credited = false;
  // The commit is void: replay must not re-credit these BUs.
  if (journal_ != nullptr) journal_->record_map_output_lost(task.id);
  processed_bus_ -= task.bus.size();
  for (const BlockUnitId bu : task.bus) bu_done_[bu] = 0;
  index_.put_back(task.bus);
  reclaimed.insert(reclaimed.end(), task.bus.begin(), task.bus.end());
  intermediate_on_node_[task.node] =
      std::max(0.0, intermediate_on_node_[task.node] -
                        task.size * job_.shuffle_ratio);
  if (recovered_ && task.id < recovered_->committed_maps.size()) {
    // A replayed commit: its record is in an earlier attempt's result, and
    // its synthetic id is its position in commit order.
    result_.voided_replays.push_back(task.id);
  } else {
    // Re-label the task's record: its work no longer counts.
    for (auto it = result_.tasks.rbegin(); it != result_.tasks.rend(); ++it) {
      if (it->id == task.id && it->kind == TaskKind::kMap) {
        it->status = TaskStatus::kLostOutput;
        it->num_bus = 0;
        break;
      }
    }
  }
  task.bus.clear();
}

void JobDriver::reopen_map_phase_for_lost_outputs() {
  // Close the reduce pipeline first so slot releases flow back into map
  // dispatch, then stall every reducer that has not started computing —
  // its fetch cannot finish without the lost outputs. Stalled reducers
  // keep their queue position and redispatch once the map phase
  // re-finishes.
  map_phase_done_ = false;
  reduce_ready_ = false;
  trace_end_phase();
  trace_begin_phase("map phase (reopened)");
  for (std::size_t idx = 0; idx < reduce_tasks_.size(); ++idx) {
    const ReduceTask& task = *reduce_tasks_[idx];
    if (task.node == kInvalidNode) continue;  // queued or re-queued
    if (task.phase != TaskPhase::kStarting &&
        task.phase != TaskPhase::kFetching) {
      continue;
    }
    const NodeId host = task.node;
    requeue_reducer(idx, "map output lost");
    rm_.release(host);
  }
}

void JobDriver::check_data_loss(std::vector<std::uint32_t> suspects,
                                const std::vector<BlockUnitId>& reclaimed) {
  if (!replica_mgr_ || done_) return;
  for (const BlockUnitId bu : reclaimed) {
    suspects.push_back(layout_->bus[bu].block);
  }
  std::sort(suspects.begin(), suspects.end());
  suspects.erase(std::unique(suspects.begin(), suspects.end()),
                 suspects.end());
  const std::uint32_t min_live = layout_->min_live();
  std::vector<std::uint32_t> lost;
  for (const std::uint32_t block : suspects) {
    if (replica_mgr_->live_holder_count(block) >= min_live) continue;
    bool unread = false;
    for (const BlockUnitId bu : layout_->blocks[block].bus) {
      if (!bu_done_[bu]) {
        unread = true;
        break;
      }
    }
    // Losing read quorum on a fully-read block is harmless: its map
    // outputs (or their re-executions) carry the data forward.
    if (!unread) continue;
    // A dead holder with a planned rejoin brings its replica/part back via
    // its block report; while rejoins can restore read quorum the block
    // waits instead of dooming the job. (Disk-destroyed parts were erased
    // from the remembered holders — a rejoin cannot bring those back.)
    std::size_t reachable = replica_mgr_->live_holder_count(block);
    for (const NodeId holder : replica_mgr_->remembered_holders(block)) {
      if (!replica_mgr_->node_alive(holder) && injector_ &&
          injector_->rejoin_pending(holder)) {
        ++reachable;
      }
    }
    if (reachable >= min_live) continue;
    record_fault(faults::FaultEventType::kDataLoss, kInvalidNode,
                 kInvalidTask, 0, block);
    lost.push_back(block);
  }
  if (lost.empty()) return;
  std::string ids;
  for (const std::uint32_t block : lost) {
    if (!ids.empty()) ids += ", ";
    ids += std::to_string(block);
  }
  result_.lost_blocks.insert(result_.lost_blocks.end(), lost.begin(),
                             lost.end());
  if (layout_->storage.erasure()) {
    abort_job("data loss: more than " +
              std::to_string(layout_->storage.rs_m) +
              " parts of unread block " + ids + " are gone");
  } else {
    abort_job("data loss: every replica of unread block " + ids +
              " is gone");
  }
}

void JobDriver::on_block_re_replicated(std::uint32_t block, NodeId target) {
  if (done_) return;
  const bool erasure = layout_->storage.erasure();
  record_fault(erasure ? faults::FaultEventType::kPartReconstructed
                       : faults::FaultEventType::kReReplicated,
               target, kInvalidTask, 0, block);
  if (erasure) {
    ++result_.parts_reconstructed;
    if (ctr_.parts_reconstructed) ctr_.parts_reconstructed->inc();
  }
  if (replica_mgr_) {
    result_.repair_read_mib = replica_mgr_->repair_read_mib();
  }
  scheduler_->on_block_rehosted(*this, block, target);
  // The new local pool may unblock a scheduler that declined its slots.
  reoffer_later();
}

void JobDriver::on_disk_fault(NodeId node, std::uint32_t disk) {
  if (done_) return;
  // Single-disk loss on a live node: the plan is non-empty (it carries the
  // disk fault), so start() already built the replica manager.
  FLEXMR_ASSERT(replica_mgr_ != nullptr);
  record_fault(faults::FaultEventType::kDiskFault, node);
  if (tracer_ != nullptr) {
    tracer_->instant({obs::node_pid(node), 0}, "disk fault", "fault",
                     sim_->now(), {{"disk", disk}});
  }
  const auto report =
      replica_mgr_->on_disk_lost(node, disk, plan_.disks_per_node);
  for (const std::uint32_t block : report.lost) {
    record_fault(layout_->storage.erasure()
                     ? faults::FaultEventType::kPartLost
                     : faults::FaultEventType::kReplicaLost,
                 node, kInvalidTask, 0, block);
  }
  check_data_loss(report.zero);
  // Locality changed under the schedulers' feet; re-offer so delay
  // cursors re-evaluate against the shrunken pools.
  if (!done_) reoffer_later();
}

bool JobDriver::node_lost(NodeId node) const {
  return replica_mgr_ && !replica_mgr_->node_alive(node);
}

bool JobDriver::node_silent(NodeId node) const {
  return injector_ && !injector_->responsive(node) && !node_lost(node);
}

void JobDriver::on_node_silent(NodeId node) {
  if (done_ || node_lost(node)) return;
  // The node's processes are gone but the AM does not know yet: freeze
  // every in-flight container there. Progress stops (rate 0) and pending
  // completion/startup events are cancelled — from the AM's perspective
  // the tasks have simply stopped reporting. Heartbeat expiry (or the
  // node's own re-registration) later turns this into a detected loss.
  const auto freeze = [this, node](Attempt& task) {
    if (task.node != node || task.phase == TaskPhase::kDone) return;
    cancel_pending(task);
    if (task.integrator) task.integrator->set_rate(sim_->now(), 0.0);
    if (tracer_ != nullptr && tracer_->task_open(ttok(task.id))) {
      tracer_->task_instant(ttok(task.id), "frozen (node silent)",
                            sim_->now());
    }
  };
  for (const TaskId id : live_map_ids_) freeze(*map_tasks_[id]);
  for (auto& owned : reduce_tasks_) freeze(*owned);
  ++map_state_version_;
}

void JobDriver::on_node_rejoin(NodeId node) {
  if (done_) return;
  // A crash no attempt detected (the node came back inside the liveness
  // window, or died while the AM was down) is reconciled at
  // re-registration: the RM learns the old containers died, so the
  // standard loss path runs first.
  if (!node_lost(node)) fail_node(node);
  if (done_) return;
  rm_.mark_alive(node);
  rm_.record_heartbeat(node, sim_->now());
  round_ips_[node].reset();
  pending_ips_samples_[node].clear();
  ++cluster_view_version_;
  record_fault(faults::FaultEventType::kRejoin, node);
  // Block report: a crash does not wipe the disk, so every replica the
  // node held returns to the live view and the index's local pools. The
  // node is no longer lost.
  replica_mgr_->on_node_restored(node);
  scheduler_->on_node_recovered(*this, node);
  reoffer_later();
}

void JobDriver::map_attempt_fail(TaskId id) {
  MapTask& task = *map_tasks_[id];
  task.pending_event = kInvalidEvent;  // the failure event itself fired
  const NodeId node = task.node;
  const bool launch_failure = task.planned_fault == PlannedFault::kLaunchFail;
  kill_map(task, TaskStatus::kFailed,
           launch_failure ? "launch failure" : "attempt failure", nullptr);

  // A surviving twin covers this work, so the failure costs nothing but
  // the dead attempt's slot time; otherwise the returned BUs are charged.
  std::vector<BlockUnitId> reclaimed;
  hand_on_bus(task, kInvalidNode, reclaimed);
  const WorstUnit worst = charge_bu_failures(reclaimed);

  record_fault(launch_failure ? faults::FaultEventType::kLaunchFailure
                              : faults::FaultEventType::kAttemptFailure,
               node, id, worst.attempts);
  note_node_attempt_failure(node);
  abort_if_exhausted(worst);
  if (!done_) scheduler_->on_attempt_failed(*this, node, reclaimed);
  rm_.release(node);
  reoffer_later();
}

void JobDriver::reduce_attempt_fail(std::size_t idx) {
  ReduceTask& task = *reduce_tasks_[idx];
  FLEXMR_ASSERT(task.phase != TaskPhase::kDone);
  task.pending_event = kInvalidEvent;

  const NodeId node = task.node;
  const TaskId id = task.id;
  const bool launch_failure = task.planned_fault == PlannedFault::kLaunchFail;
  const char* reason = launch_failure ? "launch failure" : "attempt failure";
  const MiB consumed = read_so_far(task);
  record_attempt(task, TaskKind::kReduce, TaskStatus::kFailed, consumed, 1.0);
  trace_task_closed(id, "failed", reason, consumed);
  requeue_reducer(idx, reason);

  const std::uint32_t attempts = ++reduce_attempt_failures_[idx];
  if (journal_ != nullptr) {
    journal_->record_reduce_attempt_failure(static_cast<std::uint32_t>(idx));
  }
  record_fault(launch_failure ? faults::FaultEventType::kLaunchFailure
                              : faults::FaultEventType::kAttemptFailure,
               node, id, attempts);
  note_node_attempt_failure(node);
  if (attempts >= plan_.max_attempts) {
    abort_job("reduce task " + std::to_string(id) + " failed " +
              std::to_string(attempts) + " attempts");
  }
  rm_.release(node);
  reoffer_later();
}

JobDriver::WorstUnit JobDriver::charge_bu_failures(
    const std::vector<BlockUnitId>& bus) {
  WorstUnit worst;
  for (const BlockUnitId bu : bus) {
    const std::uint32_t attempts = ++bu_attempt_failures_[bu];
    if (journal_ != nullptr) journal_->record_bu_attempt_failure(bu);
    if (attempts > worst.attempts) worst = WorstUnit{bu, attempts};
  }
  return worst;
}

void JobDriver::abort_if_exhausted(const WorstUnit& worst) {
  if (worst.attempts < plan_.max_attempts) return;
  abort_job("map input unit " + std::to_string(worst.bu) + " failed " +
            std::to_string(worst.attempts) + " attempts");
}

void JobDriver::reoffer_later() {
  sim_->schedule_after(0.0, [this]() {
    if (!done_) rm_.offer_all();
  });
}

void JobDriver::note_node_attempt_failure(NodeId node) {
  if (journal_ != nullptr) journal_->record_node_attempt_failure(node);
  ++node_failed_attempts_[node];
  if (blacklisted_[node] == 0 &&
      node_failed_attempts_[node] >= plan_.blacklist_threshold) {
    blacklisted_[node] = 1;
    record_fault(faults::FaultEventType::kBlacklist, node, kInvalidTask,
                 node_failed_attempts_[node]);
  }
}

bool JobDriver::blacklist_saturated() const {
  // Hadoop's ignore-threshold compares the blacklist against the live
  // cluster: once too many of the surviving nodes are blacklisted the AM
  // ignores the list entirely rather than starve itself.
  std::uint32_t blacklisted = 0;
  std::uint32_t alive = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(blacklisted_.size()); ++n) {
    if (node_lost(n)) continue;
    ++alive;
    if (blacklisted_[n] != 0) ++blacklisted;
  }
  return alive == 0 ||
         static_cast<double>(blacklisted) >
             plan_.blacklist_ignore_fraction * static_cast<double>(alive);
}

void JobDriver::abort_job(const std::string& reason) {
  if (done_) return;
  record_fault(faults::FaultEventType::kAbort, kInvalidNode);
  result_.aborted = true;
  result_.abort_reason = reason;
  finish_job();
}

}  // namespace flexmr::mr
