#include "mr/driver_internal.hpp"

#include <algorithm>
#include <limits>

#include "obs/profiler.hpp"

namespace flexmr::mr {

void JobDriver::dispatch_map(NodeId node, MapLaunch launch) {
  auto task = std::make_unique<MapTask>();
  task->id = static_cast<TaskId>(map_tasks_.size());
  task->node = node;

  if (launch.is_speculative()) {
    FLEXMR_ASSERT_MSG(launch.bus.empty(),
                      "speculative launch must not carry its own BUs");
    FLEXMR_ASSERT(launch.speculative_of < map_tasks_.size());
    MapTask& original = *map_tasks_[launch.speculative_of];
    FLEXMR_ASSERT_MSG(original.phase != TaskPhase::kDone,
                      "cannot speculate a finished task");
    FLEXMR_ASSERT_MSG(original.twin == kInvalidTask,
                      "task already has a speculative copy");
    FLEXMR_ASSERT_MSG(!original.speculative,
                      "cannot speculate a speculative copy");
    task->bus = original.bus;
    task->speculative = true;
    task->owns_bus = false;  // the original owns the list until it dies
    task->twin = original.id;
    original.twin = task->id;
  } else {
    FLEXMR_ASSERT_MSG(!launch.bus.empty(), "map launch with no input");
    task->bus = std::move(launch.bus);
    for (const BlockUnitId bu : task->bus) {
      FLEXMR_ASSERT_MSG(index_.taken(bu),
                        "launched BU was not taken from the index");
    }
  }

  const bool erasure = layout_->storage.erasure();
  // A part holder serves only its own 1/k of the stripe from local disk;
  // the other k-1 parts come over the network regardless of placement.
  const double part_share = erasure ? 1.0 / layout_->storage.rs_k : 1.0;
  const bool disk_windows = !plan_.disk_degradations.empty();
  MiB local = 0;
  MiB degraded = 0;
  double work = 0;
  // What a BU's block decides — served locally, at what disk speed, read
  // degraded — is read once per run of BUs from one block; the sums still
  // add BU by BU.
  std::uint32_t run_block = faults::kInvalidBlock;
  bool served = false;
  bool scaled = false;
  double disk_factor = 1.0;
  bool degraded_block = false;
  for (const BlockUnitId bu : task->bus) {
    const auto& unit = layout_->bus[bu];
    if (unit.block != run_block) {
      run_block = unit.block;
      // Locality against the *live* replica set when the NameNode is
      // live: a re-replicated copy makes the BU local to its new host, a
      // dead holder no longer counts.
      served = index_.serves(run_block, node);
      // A degraded disk serves its resident part/replica below media
      // speed; the shortfall reads remotely, so the BU simply loses that
      // much locality credit for the window's duration.
      scaled = served && (part_share != 1.0 || disk_windows);
      if (scaled) {
        disk_factor = plan_.disk_degradation_factor(
            node,
            hdfs::ReplicaManager::disk_of(run_block, node,
                                          plan_.disks_per_node),
            sim_->now());
      }
      // A stripe with dead parts still decodes from any k survivors, but
      // the reader pays the reconstruction cost below.
      degraded_block = erasure && replica_mgr_ &&
                       replica_mgr_->live_holder_count(run_block) <
                           layout_->storage.total_parts();
    }
    task->size += unit.size;
    work += unit.size * unit.cost;
    if (scaled) {
      local += unit.size * part_share * disk_factor;
    } else if (served) {
      local += unit.size;
    }
    if (degraded_block) degraded += unit.size;
  }
  task->avg_cost = work / task->size;
  task->local_fraction = local / task->size;

  const TaskId id = task->id;
  SimDuration decode_s = 0;
  if (degraded > 0) {
    // Degraded read: fetch any k surviving parts and decode the missing
    // ones before compute starts — the cost lands in the task's startup
    // and is therefore visible in JCT.
    decode_s = degraded / layout_->storage.decode_mibps;
    ++result_.degraded_reads;
    result_.decode_mib += degraded;
    if (ctr_.degraded_reads) ctr_.degraded_reads->inc();
    if (tracer_ != nullptr) {
      tracer_->instant({obs::node_pid(node), 0}, "degraded-read", "fault",
                       sim_->now(),
                       {{"task", id},
                        {"mib", degraded},
                        {"decode_s", decode_s}});
    }
  }
  const SimDuration startup = params_.container_alloc_s +
                              params_.jvm_startup_s +
                              launch.extra_startup_s + decode_s;
  launch_attempt(*task, startup, [this, id]() { map_attempt_fail(id); },
                 [this, id]() { map_compute_start(id); });

  // Ids are dispatch-ordered, so the live list stays ascending without a
  // sort; aged_running_maps also needs the dispatch times to ascend.
  FLEXMR_ASSERT(live_map_ids_.empty() ||
                map_tasks_[live_map_ids_.back()]->dispatch_time <=
                    task->dispatch_time);
  ++running_map_count_;
  if (task->speculative) ++running_speculative_count_;
  map_tasks_.push_back(std::move(task));
  live_map_ids_.push_back(id);
  ++map_state_version_;  // a new entry, and maybe the original's twin link
  if (tracer_ != nullptr) trace_map_begin(*map_tasks_[id]);
  scheduler_->on_map_dispatch(*this, id, node);
}

double JobDriver::map_rate(const MapTask& task) const {
  const double remote_factor =
      1.0 + params_.remote_read_penalty * (1.0 - task.local_fraction);
  return cluster_->machine(task.node).effective_ips() /
         (job_.map_cost * task.avg_cost * remote_factor * task.exec_noise);
}

void JobDriver::map_compute_start(TaskId id) {
  MapTask& task = *map_tasks_[id];
  task.phase = TaskPhase::kComputing;
  task.compute_start = sim_->now();
  ++map_state_version_;
  if (tracer_ != nullptr) {
    tracer_->task_child_end(ttok(id), task.compute_start);
    tracer_->task_child_begin(ttok(id), "compute", task.compute_start,
                              {{"rate_mibps", map_rate(task)}});
  }
  start_compute(task, task.size, map_rate(task),
                [this, id]() { map_attempt_fail(id); },
                [this, id]() { map_complete(id); });
}

void JobDriver::record_map(const MapTask& task, TaskStatus status,
                           MiB consumed, std::uint32_t credited_bus) {
  TaskRecord& rec = record_attempt(task, TaskKind::kMap, status, consumed,
                                   map_phase_progress());
  rec.speculative = task.speculative;
  rec.num_bus = credited_bus;
  rec.local_fraction = task.local_fraction;
  result_.map_phase_end = std::max(result_.map_phase_end, rec.end_time);
}

void JobDriver::map_complete(TaskId id) {
  MapTask& task = *map_tasks_[id];
  FLEXMR_ASSERT(task.phase == TaskPhase::kComputing);
  task.pending_event = kInvalidEvent;
  retire_map(task);

  // NOTE: rm_.release / kill_map below can cascade into dispatch_map, which
  // may reallocate map_tasks_ — copy what we need before any of them.
  const NodeId node = task.node;
  const TaskId twin_id = task.twin;

  // The winner credits the BUs; a twin (original or copy) is killed now.
  credit_map(task);
  // Commit point: the credited BU set is durable from here — an AM crash
  // after this append replays the map instead of re-running it.
  if (journal_ != nullptr) {
    journal_->record_map_commit(id, node, task.bus, task.size);
  }
  record_map(task, TaskStatus::kCompleted, task.size,
             static_cast<std::uint32_t>(task.bus.size()));
  const TaskRecord completed_rec = result_.tasks.back();
  if (tracer_ != nullptr) {
    tracer_->task_end(ttok(id), sim_->now(),
                      {{"status", "completed"},
                       {"productivity", completed_rec.productivity()}});
    ctr_.maps_completed->inc();
    auto& metrics = trace_->metrics();
    metrics.histogram("map.total_runtime_s")
        .record(completed_rec.total_runtime());
    metrics.histogram("map.effective_runtime_s")
        .record(completed_rec.effective_runtime());
    metrics.histogram("map.input_mib").record(completed_rec.input_mib);
  }

  // IPS sample at completion, folded into the node's next heartbeat round
  // (tasks shorter than a heartbeat would otherwise never report). We use
  // the task's *effective* runtime — Eq. 3 divides by total attempt time,
  // but for the 8 MB tasks FlexMap starts with that denominator is
  // dominated by container/JVM startup and would measure overhead, not
  // machine speed; the AM can observe attempt-start timestamps, so the
  // effective-runtime variant is equally implementable.
  if (completed_rec.effective_runtime() > 0) {
    pending_ips_samples_[node].push_back(task.size /
                                         completed_rec.effective_runtime());
  }

  if (twin_id != kInvalidTask) {
    MapTask& twin = *map_tasks_[twin_id];
    map_tasks_[id]->twin = kInvalidTask;
    twin.twin = kInvalidTask;
    if (twin.phase != TaskPhase::kDone) {
      kill_map(twin, TaskStatus::kKilled, "twin finished first",
               ctr_.speculative_kills);
      rm_.release(twin.node);
    }
  }

  scheduler_->on_map_complete(*this, completed_rec);

  if (processed_bus_ == layout_->bus.size() && !map_phase_done_) {
    finish_map_phase();
  }
  rm_.release(node);
}

MiB JobDriver::end_map_attempt(MapTask& task) {
  FLEXMR_ASSERT(task.phase != TaskPhase::kDone);
  cancel_pending(task);
  retire_map(task);
  return read_so_far(task);
}

void JobDriver::retire_map(MapTask& task) {
  task.phase = TaskPhase::kDone;
  --running_map_count_;
  if (task.speculative) --running_speculative_count_;
  ++map_state_version_;
  const auto it = std::lower_bound(live_map_ids_.begin(),
                                   live_map_ids_.end(), task.id);
  FLEXMR_ASSERT(it != live_map_ids_.end() && *it == task.id);
  live_map_ids_.erase(it);
}

std::vector<RunningMapInfo> JobDriver::running_maps() const {
  std::vector<RunningMapInfo> out;
  out.reserve(live_map_ids_.size());
  aged_running_maps(-std::numeric_limits<SimDuration>::infinity(), out);
  return out;
}

void JobDriver::append_running_map(const MapTask& task, SimTime now,
                                   std::vector<RunningMapInfo>& out) const {
  // Filled in place: building the entry in a local and copying it in cost
  // about a third more per call (GCC 12, Release, x86-64).
  RunningMapInfo& info = out.emplace_back();
  info.id = task.id;
  info.node = task.node;
  info.size_mib = task.size;
  info.computing = task.phase == TaskPhase::kComputing;
  info.bytes_read = info.computing ? task.integrator->done(now) : 0.0;
  info.progress = task.size > 0 ? info.bytes_read / task.size : 0.0;
  info.dispatch_time = task.dispatch_time;
  info.speculative = task.speculative;
  info.has_twin = task.twin != kInvalidTask;
}

std::size_t JobDriver::aged_running_maps(
    SimDuration min_age, std::vector<RunningMapInfo>& out) const {
  FLEXMR_PROF_SCOPE("mr/running_maps");
  // The hottest driver scan: LATE reads it once per (now,
  // map_state_version()). Dispatch times ascend along the live list, so
  // the first map younger than `min_age` ends the walk.
  const SimTime now = sim_->now();
  out.clear();
  for (const TaskId id : live_map_ids_) {
    const MapTask& task = *map_tasks_[id];
    if (now - task.dispatch_time < min_age) break;
    append_running_map(task, now, out);
  }
  return running_speculative_count_;
}

void JobDriver::running_maps_among(const std::vector<TaskId>& ids,
                                   std::vector<RunningMapInfo>& out) const {
  FLEXMR_PROF_SCOPE("mr/running_maps");
  const SimTime now = sim_->now();
  out.clear();
  for (const TaskId id : ids) {
    FLEXMR_ASSERT(id < map_tasks_.size());
    const MapTask& task = *map_tasks_[id];
    if (task.phase != TaskPhase::kDone) append_running_map(task, now, out);
  }
}

MiB JobDriver::kill_map(MapTask& task, TaskStatus status, const char* reason,
                        obs::MetricsRegistry::Counter* counter) {
  const MiB consumed = end_map_attempt(task);
  record_map(task, status, consumed, 0);
  trace_task_closed(task.id, to_string(status), reason, consumed);
  if (counter != nullptr) counter->inc();
  return consumed;
}

void JobDriver::hand_on_bus(MapTask& task, NodeId lost_node,
                            std::vector<BlockUnitId>& reclaimed) {
  if (task.twin != kInvalidTask) {
    MapTask& twin = *map_tasks_[task.twin];
    twin.twin = kInvalidTask;
    task.twin = kInvalidTask;
    ++map_state_version_;  // a surviving twin loses its has_twin flag
    const bool twin_survives =
        twin.node != lost_node || twin.phase == TaskPhase::kDone;
    if (twin_survives && task.owns_bus) {
      twin.owns_bus = true;
      task.owns_bus = false;
    }
  }
  // A non-owner's list duplicates the owner's and must not be put back.
  if (task.owns_bus) {
    index_.put_back(task.bus);
    reclaimed.insert(reclaimed.end(), task.bus.begin(), task.bus.end());
    task.size = 0;
  }
  task.bus.clear();
}

void JobDriver::credit_map(MapTask& task) {
  task.credited = !task.bus.empty();
  processed_bus_ += task.bus.size();
  for (const BlockUnitId bu : task.bus) bu_done_[bu] = 1;
  intermediate_on_node_[task.node] += task.size * job_.shuffle_ratio;
}

std::vector<BlockUnitId> JobDriver::kill_and_reclaim(TaskId id) {
  return reclaim_map(id, "skewtune reclaim");
}

bool JobDriver::preempt_one_map() {
  if (done_ || running_map_count_ == 0) return false;
  // Victim: the youngest running map — least sunk work, and under
  // FlexMap's ramp the smallest task. Speculated pairs are skipped (their
  // BU-ownership transfer protocol assumes death, not reclaim) and so are
  // containers frozen on a silently-dead node (their slot is already
  // unusable; killing them would double-free it at detection).
  TaskId victim = kInvalidTask;
  for (const TaskId id : live_map_ids_) {
    const MapTask& task = *map_tasks_[id];
    if (task.speculative || task.twin != kInvalidTask) continue;
    if (node_silent(task.node)) continue;
    if (victim == kInvalidTask ||
        task.dispatch_time >= map_tasks_[victim]->dispatch_time) {
      victim = id;
    }
  }
  if (victim == kInvalidTask) return false;
  const NodeId node = map_tasks_[victim]->node;
  const std::vector<BlockUnitId> remaining = reclaim_map(victim, "preempted");
  // The scheduler did not initiate this kill; tell it the node is fine but
  // the attempt is gone so bookkeeping policies refold the returned BUs.
  scheduler_->on_attempt_failed(*this, node, remaining);
  return true;
}

std::vector<BlockUnitId> JobDriver::reclaim_map(TaskId id,
                                                const char* reason) {
  FLEXMR_ASSERT(id < map_tasks_.size());
  MapTask& task = *map_tasks_[id];
  FLEXMR_ASSERT_MSG(task.phase != TaskPhase::kDone,
                    "kill_and_reclaim on a finished task");
  FLEXMR_ASSERT_MSG(task.twin == kInvalidTask && !task.speculative,
                    "kill_and_reclaim on a speculated task");

  // Split the BU list at the consumed prefix: complete BUs stay credited
  // to this task; the partially-read BU (if any) and the unread suffix go
  // back to the pool.
  const MiB consumed = end_map_attempt(task);
  MiB acc = 0;
  std::size_t kept = 0;
  while (kept < task.bus.size()) {
    const MiB next = acc + layout_->bus[task.bus[kept]].size;
    if (next > consumed + 1e-9) break;
    acc = next;
    ++kept;
  }
  std::vector<BlockUnitId> remaining(task.bus.begin() +
                                         static_cast<std::ptrdiff_t>(kept),
                                     task.bus.end());
  task.bus.resize(kept);
  task.size = acc;
  const NodeId node = task.node;
  credit_map(task);
  // Partial-credit commit point: the kept prefix is durable (the journal
  // stores the exact BU set, so replay re-credits precisely these units).
  if (journal_ != nullptr && kept > 0) {
    journal_->record_map_commit(id, node, task.bus, acc);
  }
  const TaskStatus status =
      kept > 0 ? TaskStatus::kPartialCompleted : TaskStatus::kKilled;
  record_map(task, status, acc, static_cast<std::uint32_t>(kept));
  const TaskRecord partial_rec = result_.tasks.back();
  trace_task_closed(id, to_string(status), reason, acc);
  if (kept > 0) scheduler_->on_map_complete(*this, partial_rec);

  index_.put_back(remaining);
  rm_.release(node);  // `task` may dangle past this point
  // If this ran inside an offer cascade the release above was swallowed by
  // the re-entrancy guard; mop up once the current event unwinds.
  sim_->schedule_after(0.0, [this]() { rm_.offer_all(); });

  if (processed_bus_ == layout_->bus.size() && !map_phase_done_) {
    finish_map_phase();
  }
  return remaining;
}

void JobDriver::finish_map_phase() {
  FLEXMR_ASSERT_MSG(running_map_count_ == 0,
                    "map phase ended with running maps");
  FLEXMR_ASSERT(index_.unprocessed() == 0);
  map_phase_done_ = true;
  trace_end_phase();
  if (job_.map_only()) {
    finish_job();
    return;
  }
  // Reducers already exist when the phase was *re-opened* by a map-output
  // loss during the shuffle; the survivors keep their progress and the
  // stalled ones sit in reduce_requeue_.
  if (reduce_tasks_.empty()) enqueue_reducers();
  trace_begin_phase("reduce phase");
  // Reduce dispatch waits for the deferred offer_all below: otherwise the
  // slot release of the *last finishing map* — almost always on the
  // slowest node — would synchronously grab the first (largest) reducer.
  sim_->schedule_after(0.0, [this]() {
    reduce_ready_ = true;
    rm_.offer_all();
  });
}

}  // namespace flexmr::mr
