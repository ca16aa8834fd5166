#include "mr/driver_internal.hpp"

namespace flexmr::mr {

void JobDriver::set_journal(recover::JobJournal* journal) {
  FLEXMR_ASSERT_MSG(!started_, "install the journal before start()");
  journal_ = journal;
}

void JobDriver::crash_am(const std::string& abort_reason) {
  if (done_) return;
  FLEXMR_ASSERT_MSG(journal_ != nullptr, "crash_am without a journal");
  am_crashed_ = true;
  record_fault(faults::FaultEventType::kAmCrash, kInvalidNode, kInvalidTask,
               am_attempt_);

  AmAttemptRecord attempt;
  attempt.attempt = am_attempt_;
  attempt.crash_time = sim_->now();

  // Going done() *before* releasing slots: every release below cascades
  // into the offer path, and a dead AM must decline all of them (the
  // successor re-registers after am_restart_delay_s).
  done_ = true;

  // Tear down every in-flight map container — MRAppMaster death kills the
  // whole application's containers, so their consumed input is wasted
  // simulated time the successor re-runs from the journal. (A copy: each
  // kill leaves the live list.)
  const std::vector<TaskId> live = live_map_ids_;
  for (const TaskId id : live) {
    MapTask& task = *map_tasks_[id];
    attempt.wasted_mib +=
        kill_map(task, TaskStatus::kKilled, "am crashed", ctr_.maps_killed);
    // Exactly one of an original/copy pair owns the BU list; counting the
    // owner only keeps wasted_units a partition of the job's BUs.
    if (task.owns_bus) {
      attempt.wasted_units += static_cast<std::uint64_t>(task.bus.size());
    }
    if (!rm_.is_dead(task.node)) rm_.release(task.node);
  }

  // And every dispatched uncommitted reducer (committed ones are durable
  // HDFS output and stay committed in the journal).
  for (auto& owned : reduce_tasks_) {
    ReduceTask& task = *owned;
    if (task.node == kInvalidNode || task.phase == TaskPhase::kDone) continue;
    cancel_pending(task);
    const MiB consumed = read_so_far(task);
    attempt.wasted_mib += consumed;
    record_attempt(task, TaskKind::kReduce, TaskStatus::kKilled, consumed,
                   map_phase_progress());
    trace_task_closed(task.id, "killed", "am crashed", consumed);
    task.phase = TaskPhase::kDone;
    --running_reduce_count_;
    if (!rm_.is_dead(task.node)) rm_.release(task.node);
  }

  result_.redone_work_mib += attempt.wasted_mib;
  result_.redone_work_units += attempt.wasted_units;
  if (ctr_.redone_units != nullptr) {
    ctr_.redone_units->inc(attempt.wasted_units);
  }
  result_.am_attempts.push_back(attempt);
  if (!abort_reason.empty()) {
    // Before the trace closes, so its final metrics row counts the abort.
    record_fault(faults::FaultEventType::kAbort, kInvalidNode, kInvalidTask,
                 am_attempt_);
    result_.aborted = true;
    result_.abort_reason = abort_reason;
    record_sim_counters();
  }
  // No finish_time: this attempt did not finish the job — it died.
  trace_finish();
}

std::unique_ptr<JobDriver> JobDriver::successor(yarn::ResourceManager& rm) {
  FLEXMR_ASSERT_MSG(am_crashed_, "successor before crash_am()");
  auto next = std::make_unique<JobDriver>(*sim_, *cluster_, *layout_, job_,
                                          params_, *scheduler_, rm);
  next->plan_ = plan_;
  next->injector_ = std::move(injector_);
  next->replica_mgr_ = std::move(replica_mgr_);
  next->journal_ = journal_;
  next->am_attempt_ = am_attempt_ + 1;
  next->recovered_.emplace(journal_->replay());
  successor_ = next.get();
  AmAttemptRecord& record = result_.am_attempts.back();
  record.restart_time = sim_->now();
  record.replayed_units =
      static_cast<std::uint64_t>(next->recovered_->replayed_units());
  return next;
}

void JobDriver::restore_from_journal() {
  const recover::RecoveredState& rec = *recovered_;

  // Node-liveness reconciliation at re-registration: the RM remembers the
  // deaths the previous attempt detected. A node that came back while no
  // AM was alive to process its rejoin is reconciled here; silent deaths
  // the old AM never detected are re-detected by heartbeat expiry (the
  // liveness clock ran through the AM downtime). A shared cluster's node
  // that died during the downtime is still live in the NameNode view: no
  // attempt has processed it, and start() runs its loss path at its end.
  for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
    if (!rm_.is_dead(node)) continue;
    if (injector_ && injector_->responsive(node)) {
      rm_.mark_alive(node);
      ++cluster_view_version_;
      rm_.record_heartbeat(node, sim_->now());
      replica_mgr_->on_node_restored(node);
      record_fault(faults::FaultEventType::kRejoin, node);
    } else if (replica_mgr_ && !replica_mgr_->node_alive(node)) {
      failed_nodes_.insert(node);
    }
  }

  // Committed maps replay as synthetic Done tasks, in original commit
  // order so the per-node intermediate sums rebuild with FP rounding
  // identical to the run that produced them. Their BUs leave the pool
  // exactly as if the maps had just run — the exactly-once invariant
  // holds across the restart.
  map_fetch_reports_.assign(rec.committed_maps.size(), 0);
  for (const recover::CommittedMap& m : rec.committed_maps) {
    index_.take_units(m.bus);
    auto task = std::make_unique<MapTask>();
    task->id = static_cast<TaskId>(map_tasks_.size());
    task->node = m.node;
    task->bus = m.bus;
    task->size = m.size;
    task->phase = TaskPhase::kDone;
    map_fetch_reports_[task->id] = m.fetch_reports;
    credit_map(*task);
    map_tasks_.push_back(std::move(task));
  }

  // Re-key the journal to this attempt's task-id space: the synthetic
  // tasks above were renumbered 0..k-1 in commit order, and every future
  // append (output losses, fetch reports, fresh commits) uses this
  // attempt's ids — without the rebase, a third attempt's replay would
  // mis-join old and new id spaces.
  recover::RecoveredState rebased = rec;
  for (std::size_t i = 0; i < rebased.committed_maps.size(); ++i) {
    rebased.committed_maps[i].task = static_cast<TaskId>(i);
  }
  journal_->rebase(std::move(rebased));

  if (processed_bus_ == layout_->bus.size()) map_phase_done_ = true;

  // The reduce plan is pinned (auto-sizing reads live slots, which may
  // have changed); committed reducers stay done, the rest re-pend in
  // index order through the requeue lane.
  if (rec.reduce_planned) {
    enqueue_reducers(rec.num_reducers);
    for (const auto& [idx, n] : rec.reduce_attempt_failures) {
      reduce_attempt_failures_[idx] = n;
    }
    for (const auto& r : rec.committed_reduces) {
      ReduceTask& task = *reduce_tasks_[r.index];
      task.node = r.node;
      task.phase = TaskPhase::kDone;
      ++reducers_done_;
    }
    next_reducer_ = reduce_tasks_.size();
    for (std::size_t idx = 0; idx < reduce_tasks_.size(); ++idx) {
      if (reduce_tasks_[idx]->phase != TaskPhase::kDone) {
        reduce_requeue_.push_back(idx);
      }
    }
    // When the map phase is whole the shuffle can restart immediately; a
    // phase re-opened by output loss waits for finish_map_phase again.
    if (map_phase_done_) reduce_ready_ = true;
  }
}

}  // namespace flexmr::mr
