#include "mr/metrics.hpp"

#include <algorithm>
#include <utility>

namespace flexmr::mr {

const char* to_string(TaskKind kind) {
  return kind == TaskKind::kMap ? "map" : "reduce";
}

const char* to_string(TaskStatus status) {
  switch (status) {
    case TaskStatus::kCompleted: return "completed";
    case TaskStatus::kPartialCompleted: return "partial";
    case TaskStatus::kKilled: return "killed";
    case TaskStatus::kLostOutput: return "lost-output";
    case TaskStatus::kFailed: return "failed";
  }
  return "?";
}

SimDuration JobResult::map_serial_runtime() const {
  SimDuration total = 0;
  for (const auto& task : tasks) {
    if (task.kind == TaskKind::kMap &&
        (task.status == TaskStatus::kCompleted ||
         task.status == TaskStatus::kPartialCompleted)) {
      total += task.total_runtime();
    }
  }
  return total;
}

double JobResult::efficiency() const {
  const SimDuration phase = map_phase_runtime();
  if (phase <= 0 || total_slots == 0) return 0.0;
  return map_serial_runtime() /
         (phase * static_cast<double>(total_slots));
}

double JobResult::mean_map_productivity() const {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& task : tasks) {
    if (task.kind == TaskKind::kMap &&
        task.status == TaskStatus::kCompleted) {
      sum += task.productivity();
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

SampleSet JobResult::map_runtimes() const {
  SampleSet set;
  for (const auto& task : tasks) {
    if (task.kind == TaskKind::kMap &&
        task.status == TaskStatus::kCompleted) {
      set.add(task.total_runtime());
    }
  }
  return set;
}

SimDuration JobResult::wasted_slot_time() const {
  SimDuration total = 0;
  for (const auto& task : tasks) {
    if (task.status == TaskStatus::kKilled ||
        task.status == TaskStatus::kLostOutput ||
        task.status == TaskStatus::kFailed) {
      total += task.total_runtime();
    }
  }
  return total;
}

std::size_t JobResult::count(TaskKind kind, TaskStatus status) const {
  std::size_t n = 0;
  for (const auto& task : tasks) {
    if (task.kind == kind && task.status == status) ++n;
  }
  return n;
}

std::size_t JobResult::map_tasks_launched() const {
  std::size_t n = 0;
  for (const auto& task : tasks) {
    if (task.kind == TaskKind::kMap) ++n;
  }
  return n;
}

JobResult merge_attempts(const std::vector<const JobResult*>& earlier,
                         JobResult last) {
  if (!earlier.empty()) {
    // Attempts are disjoint in time and internally chronological, so
    // concatenation preserves order.
    std::vector<TaskRecord> tasks;
    std::vector<faults::FaultEvent> events;
    std::vector<AmAttemptRecord> records;
    for (const JobResult* r : earlier) {
      tasks.insert(tasks.end(), r->tasks.begin(), r->tasks.end());
      events.insert(events.end(), r->fault_events.begin(),
                    r->fault_events.end());
      records.insert(records.end(), r->am_attempts.begin(),
                     r->am_attempts.end());
    }
    tasks.insert(tasks.end(), last.tasks.begin(), last.tasks.end());
    events.insert(events.end(), last.fault_events.begin(),
                  last.fault_events.end());
    records.insert(records.end(), last.am_attempts.begin(),
                   last.am_attempts.end());
    last.tasks = std::move(tasks);
    last.fault_events = std::move(events);
    last.am_attempts = std::move(records);
    // The job began when attempt 1 did; AM downtime counts against JCT.
    last.submit_time = earlier.front()->submit_time;
    last.map_phase_start = earlier.front()->map_phase_start;
    for (const JobResult* r : earlier) {
      last.map_phase_end = std::max(last.map_phase_end, r->map_phase_end);
    }
  }
  last.redone_work_mib = 0;
  last.redone_work_units = 0;
  for (const AmAttemptRecord& rec : last.am_attempts) {
    last.redone_work_mib += rec.wasted_mib;
    last.redone_work_units += rec.wasted_units;
  }
  return last;
}

}  // namespace flexmr::mr
