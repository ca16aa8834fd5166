#include "mr/driver_internal.hpp"

namespace flexmr::mr {

void JobDriver::set_trace(obs::TraceSession* trace, TraceNamespace ns) {
  FLEXMR_ASSERT_MSG(!started_, "install tracing before start()");
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
  // Each gauge reads the live attempt: after an AM restart this attempt
  // is a crashed one, and its successors register none.
  const auto gauge = [this, &metrics](std::string name, auto read) {
    metrics.register_gauge(std::move(name),
                           [this, read]() { return read(live_attempt()); });
  };
  gauge("cluster_utilization", [](const JobDriver& d) {
    const double total = static_cast<double>(d.rm_.total_slots());
    return total > 0
               ? (total - static_cast<double>(d.rm_.total_free())) / total
               : 0.0;
  });
  gauge("rm_free_containers", [](const JobDriver& d) {
    return static_cast<double>(d.rm_.total_free());
  });
  gauge("pending_map_bus", [](const JobDriver& d) {
    return static_cast<double>(d.index_.unprocessed());
  });
  gauge("pending_reducers", [](const JobDriver& d) {
    return static_cast<double>(d.reduce_tasks_.size() - d.next_reducer_ +
                               d.reduce_requeue_.size());
  });
  gauge("running_maps", [](const JobDriver& d) {
    return static_cast<double>(d.running_map_count_);
  });
  gauge("running_reduces", [](const JobDriver& d) {
    return static_cast<double>(d.running_reduce_count_);
  });
  gauge("in_flight_fetches", [](const JobDriver& d) {
    std::size_t fetching = 0;
    for (const auto& owned : d.reduce_tasks_) {
      if (owned->phase == TaskPhase::kFetching) ++fetching;
    }
    return static_cast<double>(fetching);
  });
  const auto under_replicated = [](const JobDriver& d) {
    return d.replica_mgr_ ? static_cast<double>(
                                d.replica_mgr_->under_replicated_count())
                          : 0.0;
  };
  gauge("under_replicated_blocks", under_replicated);
  if (layout_->storage.erasure()) {
    // rs(k,m) alias of the same backlog: the repair queue holds blocks
    // below their k+m part target, sized for the erasure dashboards.
    gauge("repair_backlog", under_replicated);
  }
  if (trace_->options().per_node_gauges) {
    for (NodeId node = 0; node < cluster_->num_nodes(); ++node) {
      gauge("node" + std::to_string(node) + "_ips_mibps",
            [node](const JobDriver& d) {
              return d.round_ips_[node] ? *d.round_ips_[node] : 0.0;
            });
    }
  }

  trace_begin_phase(map_phase_done_ ? "reduce phase (recovered)"
                                    : "map phase");
}

const JobDriver& JobDriver::live_attempt() const {
  const JobDriver* live = this;
  while (live->successor_ != nullptr) live = live->successor_;
  return *live;
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
