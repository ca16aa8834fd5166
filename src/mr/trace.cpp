#include "mr/trace.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "obs/session.hpp"

namespace flexmr::mr {

namespace {

char glyph(const TaskRecord& task) {
  if (task.status == TaskStatus::kKilled ||
      task.status == TaskStatus::kLostOutput) {
    return 'x';
  }
  return task.kind == TaskKind::kMap ? '=' : '#';
}

}  // namespace

std::string trace_csv(const JobResult& result) {
  std::ostringstream os;
  os << "id,kind,status,node,speculative,dispatch,compute_start,end,"
        "input_mib,num_bus,productivity\n";
  for (const auto& task : result.tasks) {
    os << task.id << ',' << to_string(task.kind) << ','
       << to_string(task.status) << ',' << task.node << ','
       << (task.speculative ? 1 : 0) << ',' << task.dispatch_time << ','
       << task.compute_start << ',' << task.end_time << ','
       << task.input_mib << ',' << task.num_bus << ','
       << task.productivity() << '\n';
  }
  return os.str();
}

std::vector<TaskLane> pack_lanes(const JobResult& result) {
  std::vector<const TaskRecord*> sorted;
  sorted.reserve(result.tasks.size());
  for (const auto& task : result.tasks) sorted.push_back(&task);
  std::sort(sorted.begin(), sorted.end(),
            [](const TaskRecord* a, const TaskRecord* b) {
              if (a->dispatch_time != b->dispatch_time) {
                return a->dispatch_time < b->dispatch_time;
              }
              return a->id < b->id;
            });
  // Tasks sorted by dispatch make greedy packing valid.
  std::unordered_map<NodeId, std::vector<SimTime>> busy_until;
  std::vector<TaskLane> packed;
  packed.reserve(sorted.size());
  for (const TaskRecord* task : sorted) {
    auto& busy = busy_until[task->node];
    std::uint32_t lane = 0;
    while (lane < busy.size() && busy[lane] > task->dispatch_time + 1e-9) {
      ++lane;
    }
    if (lane == busy.size()) busy.push_back(0.0);
    busy[lane] = task->end_time;
    packed.push_back(TaskLane{task, lane});
  }
  return packed;
}

std::string gantt(const JobResult& result, const cluster::Cluster& cluster,
                  std::size_t width) {
  FLEXMR_ASSERT(width >= 10);
  const SimTime t0 = result.submit_time;
  const SimTime t1 = std::max(result.finish_time, t0 + 1e-9);
  const double scale = static_cast<double>(width) / (t1 - t0);

  struct Row {
    NodeId node;
    std::uint32_t slot;
    std::string cells;
  };
  std::vector<Row> rows;
  std::vector<std::size_t> first_row(cluster.num_nodes());
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    first_row[n] = rows.size();
    for (std::uint32_t s = 0; s < cluster.machine(n).slots(); ++s) {
      rows.push_back(Row{n, s, std::string(width, '.')});
    }
  }

  auto col = [&](SimTime t) {
    const auto c = static_cast<std::size_t>((t - t0) * scale);
    return std::min(c, width - 1);
  };
  for (const auto& [task, lane] : pack_lanes(result)) {
    const std::uint32_t slots = cluster.machine(task->node).slots();
    Row& row = rows[first_row[task->node] + (lane < slots ? lane : 0)];
    const std::size_t from = col(task->dispatch_time);
    const std::size_t to = std::max(from, col(task->end_time));
    for (std::size_t c = from; c <= to; ++c) row.cells[c] = glyph(*task);
  }

  std::ostringstream os;
  os << "t = " << t0 << " .. " << t1 << " s   ('=' map, '#' reduce, "
     << "'x' killed, '.' idle)\n";
  for (const auto& row : rows) {
    os << "node " << row.node;
    if (row.node < 10) os << ' ';
    os << " slot " << row.slot << " |" << row.cells << "|\n";
  }
  return os.str();
}

std::string job_result_trace_json(const JobResult& result) {
  obs::TraceSession session;
  session.set_metadata("source", "job_result replay");
  session.set_metadata("benchmark", result.benchmark);
  session.set_metadata("scheduler", result.scheduler);
  session.set_metadata("seed", std::to_string(result.seed));
  obs::EventTracer& tracer = session.tracer();

  tracer.set_process_name(obs::kJobPid,
                          "job " + result.benchmark + " [" +
                              result.scheduler + "]");
  tracer.set_thread_name(obs::kJobPid, 0, "phases");
  tracer.complete({obs::kJobPid, 0}, "job", "phase", result.submit_time,
                  result.finish_time - result.submit_time,
                  {{"aborted", result.aborted}});
  if (result.map_phase_end > result.map_phase_start) {
    tracer.complete({obs::kJobPid, 0}, "map phase", "phase",
                    result.map_phase_start,
                    result.map_phase_end - result.map_phase_start, {});
  }

  for (const auto& [task, lane] : pack_lanes(result)) {
    const std::uint32_t pid = obs::node_pid(task->node);
    const std::uint32_t tid = lane + 1;
    // Names are keyed by id, so naming again on every task is harmless.
    tracer.set_process_name(pid, "node " + std::to_string(task->node));
    tracer.set_thread_name(pid, tid, "lane " + std::to_string(tid));

    std::string name = std::string(to_string(task->kind)) + ' ' +
                       std::to_string(task->id);
    if (task->speculative) name += " (spec)";
    tracer.complete({pid, tid}, std::move(name), to_string(task->kind),
                    task->dispatch_time,
                    task->end_time - task->dispatch_time,
                    {{"status", to_string(task->status)},
                     {"input_mib", task->input_mib},
                     {"num_bus", task->num_bus},
                     {"compute_start", task->compute_start},
                     {"productivity", task->productivity()}});
  }

  if (!result.fault_events.empty()) {
    tracer.set_process_name(obs::kFaultsPid, "fault timeline");
    tracer.set_thread_name(obs::kFaultsPid, 0, "events");
    for (const auto& ev : result.fault_events) {
      obs::TraceArgs args;
      if (ev.node != kInvalidNode) args.emplace_back("node", ev.node);
      if (ev.task != kInvalidTask) args.emplace_back("task", ev.task);
      if (ev.attempts != 0) args.emplace_back("attempts", ev.attempts);
      if (ev.block != faults::kInvalidBlock) {
        args.emplace_back("block", ev.block);
      }
      tracer.instant({obs::kFaultsPid, 0}, faults::to_string(ev.type),
                     "fault", ev.time, std::move(args));
    }
  }

  return session.trace_json();
}

}  // namespace flexmr::mr
