#include "mr/driver.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace flexmr::mr {

namespace {
constexpr TaskId kReduceIdBase = 1'000'000;
}

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

  if (!plan_.empty()) {
    // The live NameNode view only matters when nodes can die; without
    // faults the static layout is already the truth. A recovered attempt
    // adopts its predecessor's (the replica map must not forget deaths);
    // only the handlers are re-pointed at this driver.
    if (!replica_mgr_) {
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
    replica_mgr_->set_copy_complete_handler(
        [this](std::uint32_t block, NodeId target) {
          on_block_re_replicated(block, target);
        });
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
  } else if (replica_mgr_) {
    // An adopted NameNode view with an empty local plan: multi-job drivers
    // learn of node deaths from the coordinator (which creates the replica
    // map lazily), so a successor attempt can inherit one without owning an
    // injector. Only the handler is re-pointed — building an injector from
    // the empty plan would make restore_from_journal treat every RM-dead
    // node as rejoined.
    replica_mgr_->set_copy_complete_handler(
        [this](std::uint32_t block, NodeId target) {
          on_block_re_replicated(block, target);
        });
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
}

JobResult JobDriver::run() {
  FLEXMR_ASSERT_MSG(owned_rm_ != nullptr,
                    "run() is for single-job mode; with a shared RM use "
                    "start() and step the simulator yourself");
  start();
  while (!done_) {
    if (!sim_->step()) {
      throw InvariantError("simulation ran dry before job completion");
    }
    // Pull-based sampling: the registry emits rows for cadence ticks the
    // simulator just crossed. Never schedules events, so the event-queue
    // counters in the golden hashes stay identical with tracing on/off.
    if (trace_ != nullptr) trace_->metrics().maybe_sample(sim_->now());
  }
  if (result_.aborted) {
    if (!result_.lost_blocks.empty()) {
      throw DataLossError(result_.abort_reason, result_);
    }
    throw JobAbortedError(result_.abort_reason, result_);
  }
  return result_;
}

// ---------------------------------------------------------------------------
// Map phase
// ---------------------------------------------------------------------------

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

void JobDriver::dispatch_map(NodeId node, MapLaunch launch) {
  auto task = std::make_unique<MapTask>();
  task->id = static_cast<TaskId>(map_tasks_.size());
  task->node = node;
  task->dispatch_time = sim_->now();

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
  for (const BlockUnitId bu : task->bus) {
    const auto& unit = layout_->bus[bu];
    task->size += unit.size;
    work += unit.size * unit.cost;
    // Locality against the *live* replica set when the NameNode is live:
    // a re-replicated copy makes the BU local to its new host, a dead
    // holder no longer counts.
    bool holds = false;
    if (replica_mgr_) {
      holds = replica_mgr_->holds_live(unit.block, node);
    } else {
      const auto& replicas = layout_->replicas_of(bu);
      holds = std::find(replicas.begin(), replicas.end(), node) !=
              replicas.end();
    }
    if (holds) {
      if (part_share != 1.0 || disk_windows) {
        // A degraded disk serves its resident part/replica below media
        // speed; the shortfall reads remotely, so the BU simply loses that
        // much locality credit for the window's duration.
        local += unit.size * part_share *
                 plan_.disk_degradation_factor(
                     node,
                     hdfs::ReplicaManager::disk_of(unit.block, node,
                                                   plan_.disks_per_node),
                     sim_->now());
      } else {
        local += unit.size;
      }
    }
    // A stripe with dead parts still decodes from any k survivors, but the
    // reader pays the reconstruction cost below.
    if (erasure && replica_mgr_ &&
        replica_mgr_->live_holder_count(unit.block) <
            layout_->storage.total_parts()) {
      degraded += unit.size;
    }
  }
  task->avg_cost = work / task->size;
  task->local_fraction = local / task->size;
  if (params_.exec_noise_sigma > 0) {
    const double sigma = params_.exec_noise_sigma;
    task->exec_noise = std::exp(-sigma * sigma / 2.0 +
                                sigma * rng_.normal());
  }

  draw_planned_fault(node, task->planned_fault, task->fail_frac);

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
  if (injector_ && !injector_->responsive(node)) {
    // Dispatched onto a silently-dead node (the AM has not noticed yet):
    // the container never comes up. The task freezes in kStarting until
    // heartbeat expiry declares the node lost and reclaims its work.
  } else if (task->planned_fault == PlannedFault::kLaunchFail) {
    task->pending_event = sim_->schedule_after(
        params_.container_alloc_s, [this, id]() { map_attempt_fail(id); });
  } else {
    task->pending_event = sim_->schedule_after(
        startup, [this, id]() { map_compute_start(id); });
  }

  ++running_map_count_;
  map_tasks_.push_back(std::move(task));
  live_map_ids_.push_back(id);  // ids are dispatch-ordered, so this stays
                                // ascending without a sort
  if (tracer_ != nullptr) trace_map_begin(*map_tasks_[id]);
  scheduler_->on_map_dispatch(*this, id, node);
}

void JobDriver::draw_planned_fault(NodeId node, PlannedFault& fault,
                                   double& fail_frac) {
  fault = PlannedFault::kNone;
  fail_frac = 0;
  if (!injector_) return;
  if (injector_->draw_launch_failure(node)) {
    fault = PlannedFault::kLaunchFail;
  } else if (injector_->draw_attempt_failure(node)) {
    fault = PlannedFault::kAttemptFail;
    fail_frac = injector_->draw_failure_fraction();
  }
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
  task.integrator.emplace(task.size, map_rate(task), sim_->now());
  if (tracer_ != nullptr) {
    tracer_->task_child_end(ttok(id), task.compute_start);
    tracer_->task_child_begin(ttok(id), "compute", task.compute_start,
                              {{"rate_mibps", map_rate(task)}});
  }
  if (task.planned_fault == PlannedFault::kAttemptFail) {
    // The attempt dies fail_frac of the way to its projected completion
    // (wall-clock moment — later speed changes re-rate the integrator but
    // do not move the death).
    const auto eta = task.integrator->eta(sim_->now());
    FLEXMR_ASSERT(eta.has_value());
    const SimTime fail_at =
        sim_->now() + task.fail_frac * (*eta - sim_->now());
    task.pending_event =
        sim_->schedule_at(fail_at, [this, id]() { map_attempt_fail(id); });
    return;
  }
  reschedule_map_completion(task);
}

void JobDriver::reschedule_map_completion(MapTask& task) {
  if (task.pending_event != kInvalidEvent) {
    sim_->cancel(task.pending_event);
    task.pending_event = kInvalidEvent;
  }
  const auto eta = task.integrator->eta(sim_->now());
  FLEXMR_ASSERT_MSG(eta.has_value(), "map task stalled at zero rate");
  const TaskId id = task.id;
  task.pending_event =
      sim_->schedule_at(*eta, [this, id]() { map_complete(id); });
}

void JobDriver::record_map(const MapTask& task, TaskStatus status,
                           MiB consumed, std::uint32_t credited_bus) {
  TaskRecord rec;
  rec.id = task.id;
  rec.node = task.node;
  rec.kind = TaskKind::kMap;
  rec.status = status;
  rec.speculative = task.speculative;
  rec.dispatch_time = task.dispatch_time;
  rec.compute_start = task.compute_start;
  rec.end_time = sim_->now();
  rec.input_mib = consumed;
  rec.num_bus = credited_bus;
  rec.local_fraction = task.local_fraction;
  rec.phase_progress_at_end = map_phase_progress();
  result_.map_phase_end = std::max(result_.map_phase_end, rec.end_time);
  result_.tasks.push_back(rec);
}

void JobDriver::map_complete(TaskId id) {
  MapTask& task = *map_tasks_[id];
  FLEXMR_ASSERT(task.phase == TaskPhase::kComputing);
  task.phase = TaskPhase::kDone;
  task.pending_event = kInvalidEvent;
  --running_map_count_;

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
  if (task.pending_event != kInvalidEvent) {
    sim_->cancel(task.pending_event);
    task.pending_event = kInvalidEvent;
  }
  task.phase = TaskPhase::kDone;
  --running_map_count_;
  return task.integrator ? task.integrator->done(sim_->now()) : 0.0;
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
    if (task.phase == TaskPhase::kDone) continue;
    if (task.speculative || task.twin != kInvalidTask) continue;
    if (silent_nodes_.count(task.node) > 0) continue;
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

// ---------------------------------------------------------------------------
// Reduce phase
// ---------------------------------------------------------------------------

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
  if (params_.exec_noise_sigma > 0) {
    const double sigma = params_.exec_noise_sigma;
    task.exec_noise = std::exp(-sigma * sigma / 2.0 + sigma * rng_.normal());
  }
  task.dispatch_time = sim_->now();
  draw_planned_fault(node, task.planned_fault, task.fail_frac);
  ++running_reduce_count_;
  const SimDuration startup =
      params_.container_alloc_s + params_.jvm_startup_s;
  if (injector_ && !injector_->responsive(node)) {
    // Container on a silently-dead node: frozen until detection.
  } else if (task.planned_fault == PlannedFault::kLaunchFail) {
    task.pending_event = sim_->schedule_after(
        params_.container_alloc_s,
        [this, idx]() { reduce_attempt_fail(idx); });
  } else {
    task.pending_event = sim_->schedule_after(
        startup, [this, idx]() { reduce_fetch_start(idx); });
  }
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
  task.integrator.emplace(task.input, reduce_rate(task), sim_->now());
  const auto eta = task.integrator->eta(sim_->now());
  FLEXMR_ASSERT(eta.has_value());
  if (task.planned_fault == PlannedFault::kAttemptFail) {
    const SimTime fail_at =
        sim_->now() + task.fail_frac * (*eta - sim_->now());
    task.pending_event = sim_->schedule_at(
        fail_at, [this, idx]() { reduce_attempt_fail(idx); });
    return;
  }
  task.pending_event =
      sim_->schedule_at(*eta, [this, idx]() { reduce_complete(idx); });
}

void JobDriver::reduce_complete(std::size_t idx) {
  ReduceTask& task = *reduce_tasks_[idx];
  task.phase = TaskPhase::kDone;
  task.pending_event = kInvalidEvent;
  --running_reduce_count_;

  record_reduce(task, TaskStatus::kCompleted, task.input, 1.0);
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

void JobDriver::record_reduce(const ReduceTask& task, TaskStatus status,
                              MiB input, double phase_progress) {
  TaskRecord rec;
  rec.id = task.id;
  rec.node = task.node;
  rec.kind = TaskKind::kReduce;
  rec.status = status;
  rec.dispatch_time = task.dispatch_time;
  rec.compute_start = task.compute_start;
  rec.end_time = sim_->now();
  rec.input_mib = input;
  rec.phase_progress_at_end = phase_progress;
  result_.tasks.push_back(rec);
}

void JobDriver::requeue_reducer(std::size_t idx, const char* reason) {
  ReduceTask& task = *reduce_tasks_[idx];
  if (task.pending_event != kInvalidEvent) {
    sim_->cancel(task.pending_event);
    task.pending_event = kInvalidEvent;
  }
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

void JobDriver::finish_job() {
  trace_finish();
  done_ = true;
  result_.finish_time = sim_->now();
  if (result_.map_phase_end == 0) result_.map_phase_end = sim_->now();
  // Snapshot of the simulator's counters at completion. In shared-cluster
  // mode the simulator is shared, so these span every co-running job.
  const SimCounters counters = sim_->counters();
  result_.sim_events_fired = counters.fired;
  result_.sim_events_cancelled = counters.cancelled;
  result_.sim_queue_peak = counters.queue_peak;
}

// ---------------------------------------------------------------------------
// Heartbeats, speed changes, observability
// ---------------------------------------------------------------------------

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
      if (failed_nodes_.count(node) > 0) continue;
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
  // This walk doubles as the live-id sweep: finished ids are dropped so
  // the list tracks in-flight tasks only. Ids stay ascending, so per-node
  // sample accumulation order (and thus FP rounding) is identical to the
  // historical all-tasks scan.
  std::size_t kept = 0;
  for (const TaskId id : live_map_ids_) {
    MapTask& task = *map_tasks_[id];
    if (task.phase == TaskPhase::kDone) continue;  // sweep
    live_map_ids_[kept++] = id;
    if (task.phase != TaskPhase::kComputing) continue;
    // A silently-dead node reports nothing; its frozen containers keep
    // their last known progress but produce no fresh samples.
    if (silent_nodes_.count(task.node) > 0) continue;
    const SimDuration computing = sim_->now() - task.compute_start;
    if (computing < params_.heartbeat_period_s) continue;
    const MiB read = task.integrator->done(sim_->now());
    if (read <= 0) continue;
    hb_ips_sum_[task.node] += read / computing;
    ++hb_ips_cnt_[task.node];
  }
  live_map_ids_.resize(kept);
  for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
    for (const double sample : pending_ips_samples_[node]) {
      hb_ips_sum_[node] += sample;
      ++hb_ips_cnt_[node];
    }
    pending_ips_samples_[node].clear();
    if (hb_ips_cnt_[node] > 0) {
      round_ips_[node] = hb_ips_sum_[node] / hb_ips_cnt_[node];
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

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

void JobDriver::install_faults(faults::FaultPlan plan) {
  FLEXMR_ASSERT_MSG(!started_, "install faults before run()");
  FLEXMR_ASSERT_MSG(owned_rm_ != nullptr,
                    "install_faults is for single-job mode (a shared-RM "
                    "coordinator owns cluster-level fault state)");
  plan_ = std::move(plan);
}

// ---------------------------------------------------------------------------
// AM crash + journaled recovery
// ---------------------------------------------------------------------------

void JobDriver::set_journal(recover::JobJournal* journal) {
  FLEXMR_ASSERT_MSG(!started_, "install the journal before start()");
  journal_ = journal;
}

void JobDriver::crash_am() {
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
  // simulated time the successor re-runs from the journal.
  for (const TaskId id : live_map_ids_) {
    MapTask& task = *map_tasks_[id];
    if (task.phase == TaskPhase::kDone) continue;
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
    if (task.pending_event != kInvalidEvent) {
      sim_->cancel(task.pending_event);
      task.pending_event = kInvalidEvent;
    }
    const MiB consumed =
        task.integrator ? task.integrator->done(sim_->now()) : 0.0;
    attempt.wasted_mib += consumed;
    record_reduce(task, TaskStatus::kKilled, consumed, map_phase_progress());
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
  AmAttemptRecord& record = result_.am_attempts.back();
  record.restart_time = sim_->now();
  record.replayed_units =
      static_cast<std::uint64_t>(next->recovered_->replayed_units());
  return next;
}

void JobDriver::restore_from_journal() {
  const recover::RecoveredState& rec = *recovered_;

  // Replicas grown beyond the static layout by earlier attempts' re-
  // replication join the fresh index first (before any dead node is
  // deactivated, so a later rejoin's recount sees them too, and before
  // any BU is taken).
  if (replica_mgr_) {
    for (std::uint32_t b = 0;
         b < static_cast<std::uint32_t>(layout_->blocks.size()); ++b) {
      const hdfs::Block& block = layout_->blocks[b];
      for (const NodeId holder : replica_mgr_->remembered_holders(b)) {
        if (std::find(block.replicas.begin(), block.replicas.end(),
                      holder) == block.replicas.end()) {
          index_.add_replica(block, holder);
        }
      }
    }
  }

  // Node-liveness reconciliation at re-registration: the RM remembers the
  // deaths the previous attempt detected. A node that came back while no
  // AM was alive to process its rejoin is reconciled here; silent deaths
  // the old AM never detected are re-detected by heartbeat expiry (the
  // liveness clock ran through the AM downtime).
  for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
    if (!rm_.is_dead(node)) continue;
    if (injector_ && injector_->responsive(node)) {
      rm_.mark_alive(node);
      rm_.record_heartbeat(node, sim_->now());
      if (replica_mgr_) replica_mgr_->on_node_restored(node);
      record_fault(faults::FaultEventType::kRejoin, node);
    } else {
      failed_nodes_.insert(node);
      index_.deactivate_node(node);
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
}

void JobDriver::notify_node_failure(NodeId node) {
  FLEXMR_ASSERT_MSG(started_, "notify_node_failure before start()");
  // A coordinator marked the node dead on the shared RM exactly once and
  // schedules the single cluster-wide re-offer itself; this job records
  // the crash + its own detection and cleans up its containers. Idempotent
  // per node; also delivered at start() to jobs admitted after the death.
  if (done_ || failed_nodes_.count(node) > 0) return;
  ensure_replica_manager();
  record_fault(faults::FaultEventType::kCrash, node);
  fail_node(node, /*schedule_reoffer=*/false);
}

void JobDriver::fail_node(NodeId node, bool schedule_reoffer) {
  // Guard on *this driver's* bookkeeping, not the RM: with a shared RM
  // another job's driver may already have marked the node dead, but this
  // job's tasks there still need cleaning up.
  if (done_ || failed_nodes_.count(node) > 0) return;
  failed_nodes_.insert(node);
  silent_nodes_.erase(node);
  if (!rm_.is_dead(node)) rm_.mark_dead(node);
  record_fault(faults::FaultEventType::kDetected, node);
  // Pre-crash speed estimates describe a gone incarnation; a rejoined
  // node must be re-measured from scratch.
  round_ips_[node].reset();
  pending_ips_samples_[node].clear();

  // NameNode first: the node's replicas leave the live view (and the
  // index's local pools) before any BU is put back, so reclaimed work
  // can only be re-taken from surviving holders.
  hdfs::ReplicaManager::NodeLossReport replica_report;
  if (replica_mgr_) {
    replica_report = replica_mgr_->on_node_lost(node);
    index_.deactivate_node(node);
    for (const std::uint32_t block : replica_report.lost) {
      record_fault(layout_->storage.erasure()
                       ? faults::FaultEventType::kPartLost
                       : faults::FaultEventType::kReplicaLost,
                   node, kInvalidTask, 0, block);
    }
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
  // Re-label the task's record: its work no longer counts.
  for (auto it = result_.tasks.rbegin(); it != result_.tasks.rend(); ++it) {
    if (it->id == task.id && it->kind == TaskKind::kMap) {
      it->status = TaskStatus::kLostOutput;
      it->num_bus = 0;
      break;
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
  index_.add_replica(layout_->blocks[block], target);
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
    // The index mirrors the loss so local pools and locality credit stop
    // counting the destroyed copy (it survives node deactivate/restore:
    // a rejoin's block report cannot resurrect a dead disk).
    index_.drop_replica(layout_->blocks[block], node);
  }
  check_data_loss(report.zero);
  // Locality changed under the schedulers' feet; re-offer so delay
  // cursors re-evaluate against the shrunken pools.
  if (!done_) reoffer_later();
}

void JobDriver::on_node_silent(NodeId node) {
  if (done_ || failed_nodes_.count(node) > 0) return;
  silent_nodes_.insert(node);
  // The node's processes are gone but the AM does not know yet: freeze
  // every in-flight container there. Progress stops (rate 0) and pending
  // completion/startup events are cancelled — from the AM's perspective
  // the tasks have simply stopped reporting. Heartbeat expiry (or the
  // node's own re-registration) later turns this into a detected loss.
  const auto freeze = [this, node](auto& task) {
    if (task.node != node || task.phase == TaskPhase::kDone) return;
    if (task.pending_event != kInvalidEvent) {
      sim_->cancel(task.pending_event);
      task.pending_event = kInvalidEvent;
    }
    if (task.integrator) task.integrator->set_rate(sim_->now(), 0.0);
    if (tracer_ != nullptr && tracer_->task_open(ttok(task.id))) {
      tracer_->task_instant(ttok(task.id), "frozen (node silent)",
                            sim_->now());
    }
  };
  for (const TaskId id : live_map_ids_) freeze(*map_tasks_[id]);
  for (auto& owned : reduce_tasks_) freeze(*owned);
}

void JobDriver::on_node_rejoin(NodeId node) {
  if (done_) return;
  // A crash the AM never detected (the node came back inside the liveness
  // window) is reconciled at re-registration: the RM learns the old
  // containers died, so the standard loss path runs first.
  if (silent_nodes_.count(node) > 0 && failed_nodes_.count(node) == 0) {
    fail_node(node);
  }
  if (done_ || failed_nodes_.count(node) == 0) return;
  failed_nodes_.erase(node);
  rm_.mark_alive(node);
  rm_.record_heartbeat(node, sim_->now());
  round_ips_[node].reset();
  pending_ips_samples_[node].clear();
  record_fault(faults::FaultEventType::kRejoin, node);
  if (replica_mgr_) {
    // Block report: a crash does not wipe the disk, so every replica the
    // node held returns to the live view and the index's local pools.
    replica_mgr_->on_node_restored(node);
    index_.restore_node(node);
  }
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
  const MiB consumed =
      task.integrator ? task.integrator->done(sim_->now()) : 0.0;
  record_reduce(task, TaskStatus::kFailed, consumed, 1.0);
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
    if (failed_nodes_.count(n) > 0) continue;
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

void JobDriver::on_speed_change(NodeId node) {
  // The cluster keeps changing speeds after this job finished (shared
  // simulations); a finished job has nothing left to re-rate. Tasks on a
  // silently-dead node are frozen at rate 0 and must not be re-rated.
  if (done_ || silent_nodes_.count(node) > 0) return;
  for (const TaskId id : live_map_ids_) {
    MapTask& task = *map_tasks_[id];
    if (task.node != node || task.phase != TaskPhase::kComputing) continue;
    task.integrator->set_rate(sim_->now(), map_rate(task));
    // A doomed attempt dies at its pre-drawn wall-clock moment; only the
    // progress it wastes is re-rated, not the death itself.
    if (task.planned_fault == PlannedFault::kAttemptFail) continue;
    reschedule_map_completion(task);
  }
  for (std::size_t idx = 0; idx < reduce_tasks_.size(); ++idx) {
    ReduceTask& task = *reduce_tasks_[idx];
    if (task.node != node || task.phase != TaskPhase::kComputing) continue;
    task.integrator->set_rate(sim_->now(), reduce_rate(task));
    if (task.planned_fault == PlannedFault::kAttemptFail) continue;
    if (task.pending_event != kInvalidEvent) {
      sim_->cancel(task.pending_event);
    }
    const auto eta = task.integrator->eta(sim_->now());
    FLEXMR_ASSERT(eta.has_value());
    task.pending_event =
        sim_->schedule_at(*eta, [this, idx]() { reduce_complete(idx); });
  }
}

std::vector<RunningMapInfo> JobDriver::running_maps() const {
  FLEXMR_PROF_SCOPE("mr/running_maps");
  // The hottest driver scan (the schedulers call this every offer and
  // every straggler probe). Entries are filled in place: building each in
  // a local and copying it in cost about a third more per call (GCC 12,
  // Release, x86-64).
  const SimTime now = sim_->now();
  std::vector<RunningMapInfo> out;
  out.reserve(live_map_ids_.size());
  for (const TaskId id : live_map_ids_) {
    const MapTask& task = *map_tasks_[id];
    if (task.phase == TaskPhase::kDone) continue;
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
  return out;
}

std::optional<MiBps> JobDriver::observed_ips(NodeId node) const {
  FLEXMR_ASSERT(node < round_ips_.size());
  return round_ips_[node];
}

double JobDriver::map_phase_progress() const {
  return static_cast<double>(processed_bus_) /
         static_cast<double>(layout_->bus.size());
}

// ---------------------------------------------------------------------------
// Tracing (opt-in; every helper is a no-op when no session is installed)
// ---------------------------------------------------------------------------

void JobDriver::set_trace(obs::TraceSession* trace) {
  set_trace(trace, TraceNamespace{});
}

void JobDriver::set_trace(obs::TraceSession* trace, TraceNamespace ns) {
  FLEXMR_ASSERT_MSG(!started_, "install tracing before run()");
  trace_ = trace;
  trace_ns_ = std::move(ns);
}

void JobDriver::trace_setup() {
  if (trace_ == nullptr) return;
  tracer_ = &trace_->tracer();
  tracer_->set_clock([this]() { return sim_->now(); });
  tracer_->set_process_name(
      trace_ns_.job_pid,
      trace_ns_.label.empty()
          ? "job " + job_.name + " [" + scheduler_->name() + "]"
          : trace_ns_.label);
  tracer_->set_thread_name(trace_ns_.job_pid, 0, "phases");
  for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
    tracer_->set_process_name(
        obs::node_pid(node), "node " + std::to_string(node) + " (" +
                                 cluster_->machine(node).spec().model + ")");
    tracer_->set_thread_name(obs::node_pid(node), 0, "scheduler");
  }
  if (replica_mgr_) {
    tracer_->set_process_name(obs::kNameNodePid, "hdfs namenode");
    tracer_->set_thread_name(obs::kNameNodePid, 0, "re-replication");
    replica_mgr_->set_tracer(tracer_);
  }
  if (injector_) {
    tracer_->set_process_name(obs::kFaultsPid, "fault injector");
    tracer_->set_thread_name(obs::kFaultsPid, 0, "ground truth");
    injector_->set_tracer(tracer_);
  }

  // All instruments are registered up front: the registry's column layout
  // freezes at the first sampled row.
  auto& metrics = trace_->metrics();
  ctr_ = register_instruments(metrics);
  if (am_attempt_ > 1) ctr_.am_restarts->inc();

  if (!trace_ns_.register_gauges) {
    trace_begin_phase(map_phase_done_ ? "reduce phase (recovered)"
                                      : "map phase");
    return;
  }
  metrics.register_gauge("cluster_utilization", [this]() {
    const double total = static_cast<double>(rm_.total_slots());
    return total > 0 ? (total - static_cast<double>(rm_.total_free())) / total
                     : 0.0;
  });
  metrics.register_gauge("rm_free_containers", [this]() {
    return static_cast<double>(rm_.total_free());
  });
  metrics.register_gauge("pending_map_bus", [this]() {
    return static_cast<double>(index_.unprocessed());
  });
  metrics.register_gauge("pending_reducers", [this]() {
    return static_cast<double>(reduce_tasks_.size() - next_reducer_ +
                               reduce_requeue_.size());
  });
  metrics.register_gauge("running_maps", [this]() {
    return static_cast<double>(running_map_count_);
  });
  metrics.register_gauge("running_reduces", [this]() {
    return static_cast<double>(running_reduce_count_);
  });
  metrics.register_gauge("in_flight_fetches", [this]() {
    std::size_t fetching = 0;
    for (const auto& owned : reduce_tasks_) {
      if (owned->phase == TaskPhase::kFetching) ++fetching;
    }
    return static_cast<double>(fetching);
  });
  metrics.register_gauge("under_replicated_blocks", [this]() {
    return replica_mgr_ ? static_cast<double>(
                              replica_mgr_->under_replicated_count())
                        : 0.0;
  });
  if (layout_->storage.erasure()) {
    // rs(k,m) alias of the same backlog: the repair queue holds blocks
    // below their k+m part target, sized for the erasure dashboards.
    metrics.register_gauge("repair_backlog", [this]() {
      return replica_mgr_ ? static_cast<double>(
                                replica_mgr_->under_replicated_count())
                          : 0.0;
    });
  }
  if (trace_->options().per_node_gauges) {
    for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
      metrics.register_gauge(
          "node" + std::to_string(node) + "_ips_mibps", [this, node]() {
            return round_ips_[node] ? *round_ips_[node] : 0.0;
          });
    }
  }

  trace_begin_phase(map_phase_done_ ? "reduce phase (recovered)"
                                    : "map phase");
}

JobDriver::Counters JobDriver::register_instruments(
    obs::MetricsRegistry& metrics) {
  Counters ctr;
  ctr.maps_dispatched = &metrics.counter("maps_dispatched");
  ctr.maps_completed = &metrics.counter("maps_completed");
  ctr.maps_killed = &metrics.counter("maps_killed");
  ctr.speculative_kills = &metrics.counter("speculative_kills");
  ctr.reduces_dispatched = &metrics.counter("reduces_dispatched");
  ctr.reduces_completed = &metrics.counter("reduces_completed");
  ctr.fetch_failures = &metrics.counter("fetch_failures");
  ctr.fault_events = &metrics.counter("fault_events");
  ctr.heartbeats = &metrics.counter("heartbeats");
  ctr.am_restarts = &metrics.counter("am_restarts");
  ctr.redone_units = &metrics.counter("redone_work_units");
  ctr.degraded_reads = &metrics.counter("degraded_reads");
  ctr.parts_reconstructed = &metrics.counter("parts_reconstructed");
  metrics.histogram("map.total_runtime_s");
  metrics.histogram("map.effective_runtime_s");
  metrics.histogram("map.input_mib");
  metrics.histogram("reduce.total_runtime_s");
  metrics.histogram("reduce.input_mib");
  return ctr;
}

void JobDriver::trace_begin_phase(const char* name) {
  if (tracer_ == nullptr) return;
  tracer_->begin({trace_ns_.job_pid, 0}, name, "phase", sim_->now());
  trace_phase_open_ = true;
}

void JobDriver::trace_end_phase() {
  if (tracer_ == nullptr || !trace_phase_open_) return;
  tracer_->end({trace_ns_.job_pid, 0}, sim_->now());
  trace_phase_open_ = false;
}

void JobDriver::trace_map_begin(const MapTask& task) {
  std::string name = "map " + std::to_string(task.id);
  if (task.speculative) {
    name += " (spec of " + std::to_string(task.twin) + ")";
  }
  tracer_->task_begin(
      obs::node_pid(task.node), ttok(task.id), std::move(name), "map",
      task.dispatch_time,
      {{"num_bus", static_cast<std::uint64_t>(task.bus.size())},
       {"size_mib", task.size},
       {"avg_cost", task.avg_cost},
       {"local_fraction", task.local_fraction},
       {"speculative", task.speculative}});
  tracer_->task_child_begin(ttok(task.id), "startup", task.dispatch_time);
  ctr_.maps_dispatched->inc();
}

void JobDriver::trace_task_closed(TaskId id, const char* status,
                                  const char* reason, MiB consumed) {
  if (tracer_ == nullptr || !tracer_->task_open(ttok(id))) return;
  tracer_->task_end(ttok(id), sim_->now(),
                    {{"status", status},
                     {"reason", reason},
                     {"consumed_mib", consumed}});
}

void JobDriver::trace_finish() {
  if (trace_ == nullptr) return;
  // Close anything still open in deterministic id order (the internal
  // open-task map is unordered); aborted jobs leave spans dangling.
  for (const auto& owned : map_tasks_) {
    if (tracer_->task_open(ttok(owned->id))) {
      tracer_->task_end(ttok(owned->id), sim_->now(),
                        {{"status", "unfinished"}});
    }
  }
  for (const auto& owned : reduce_tasks_) {
    if (tracer_->task_open(ttok(owned->id))) {
      tracer_->task_end(ttok(owned->id), sim_->now(),
                        {{"status", "unfinished"}});
    }
  }
  trace_end_phase();
  trace_->metrics().sample_now(sim_->now());
}

}  // namespace flexmr::mr
