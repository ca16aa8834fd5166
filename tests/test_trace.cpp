// Trace export and Gantt rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/presets.hpp"
#include "golden_cases.hpp"
#include "mr/trace.hpp"
#include "obs/tracer.hpp"
#include "workloads/experiment.hpp"

namespace flexmr::mr {
namespace {

JobResult run_small(cluster::Cluster& cluster) {
  auto bench = workloads::benchmark("WC");
  bench.small_input = 256.0;
  return workloads::run_job(cluster, bench,
                            workloads::InputScale::kSmall,
                            workloads::SchedulerKind::kHadoopNoSpec,
                            workloads::RunConfig{});
}

TEST(Trace, CsvHasHeaderAndOneRowPerTask) {
  auto cluster = cluster::presets::homogeneous6();
  const auto result = run_small(cluster);
  const std::string csv = trace_csv(result);
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), result.tasks.size() + 1);
  EXPECT_EQ(csv.rfind("id,kind,status,node", 0), 0u);
  EXPECT_NE(csv.find(",map,"), std::string::npos);
  EXPECT_NE(csv.find(",reduce,"), std::string::npos);
}

TEST(Trace, GanttHasOneLanePerSlot) {
  auto cluster = cluster::presets::homogeneous6();
  const auto result = run_small(cluster);
  const std::string art = gantt(result, cluster, 60);
  const auto lines = std::count(art.begin(), art.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), 1 + cluster.total_slots());
  EXPECT_NE(art.find('='), std::string::npos);  // map work is visible
  EXPECT_NE(art.find('#'), std::string::npos);  // reduce work is visible
}

TEST(Trace, GanttRowsHaveRequestedWidth) {
  auto cluster = cluster::presets::homogeneous6();
  const auto result = run_small(cluster);
  const std::string art = gantt(result, cluster, 40);
  std::size_t pos = art.find('|');
  ASSERT_NE(pos, std::string::npos);
  const std::size_t close = art.find('|', pos + 1);
  EXPECT_EQ(close - pos - 1, 40u);
}

TEST(Trace, TooNarrowWidthThrows) {
  auto cluster = cluster::presets::homogeneous6();
  const auto result = run_small(cluster);
  EXPECT_THROW(gantt(result, cluster, 5), InvariantError);
}

// A JobResult with one task per status, for the glyph and escaping tests.
JobResult synthetic_result() {
  JobResult result;
  result.benchmark = "synthetic";
  result.scheduler = "none";
  result.submit_time = 0;
  result.finish_time = 40;
  const TaskStatus statuses[] = {
      TaskStatus::kCompleted, TaskStatus::kPartialCompleted,
      TaskStatus::kKilled, TaskStatus::kLostOutput, TaskStatus::kFailed};
  TaskId id = 0;
  for (const TaskStatus status : statuses) {
    TaskRecord task;
    task.id = id;
    task.node = 0;
    task.kind = TaskKind::kMap;
    task.status = status;
    task.dispatch_time = static_cast<SimTime>(id) * 8;
    task.compute_start = task.dispatch_time + 1;
    task.end_time = task.dispatch_time + 6;
    task.input_mib = 64;
    task.num_bus = 8;
    result.tasks.push_back(task);
    ++id;
  }
  TaskRecord reduce;
  reduce.id = 1'000'000;
  reduce.node = 1;
  reduce.kind = TaskKind::kReduce;
  reduce.dispatch_time = 30;
  reduce.compute_start = 32;
  reduce.end_time = 39;
  result.tasks.push_back(reduce);
  return result;
}

TEST(Trace, EmptyJobResultCsvIsHeaderOnly) {
  const std::string csv = trace_csv(JobResult{});
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);
  EXPECT_EQ(csv.rfind("id,kind,status,node", 0), 0u);
}

TEST(Trace, EmptyJobResultGanttRendersIdleLanes) {
  auto cluster = cluster::presets::homogeneous6();
  const std::string art = gantt(JobResult{}, cluster, 40);
  const auto lines = std::count(art.begin(), art.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), 1 + cluster.total_slots());
  // Lane rows (everything after the legend line) are pure idle.
  const std::string rows = art.substr(art.find('\n') + 1);
  EXPECT_EQ(rows.find('='), std::string::npos);
  EXPECT_EQ(rows.find('#'), std::string::npos);
}

TEST(Trace, GanttWidthBelowNodeCountStillRenders) {
  // 6 nodes but only 10 columns: every task collapses into a narrow band,
  // which must clamp instead of indexing past the row.
  auto cluster = cluster::presets::homogeneous6();
  const auto result = run_small(cluster);
  const std::string art = gantt(result, cluster, 10);
  std::size_t pos = art.find('|');
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(art.find('|', pos + 1) - pos - 1, 10u);
}

TEST(Trace, GanttGlyphsPerStatus) {
  auto cluster = cluster::presets::homogeneous6();
  const std::string art = gantt(synthetic_result(), cluster, 80);
  // Killed and lost-output render as 'x'; partial keeps the map glyph
  // (its consumed prefix is real work); the reduce renders '#'.
  EXPECT_NE(art.find('x'), std::string::npos);
  EXPECT_NE(art.find('='), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Trace, CsvFieldsNeedNoEscaping) {
  // The CSV has no quoting layer, so every field must stay free of the
  // characters that would require one. Walk all statuses and kinds.
  const std::string csv = trace_csv(synthetic_result());
  std::istringstream lines(csv);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find('"'), std::string::npos) << line;
    EXPECT_EQ(line.find('\r'), std::string::npos) << line;
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 10) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 7u);  // header + 6 tasks
  for (const char* status :
       {"completed", "partial", "killed", "lost-output", "failed"}) {
    EXPECT_NE(csv.find(status), std::string::npos) << status;
  }
}

TEST(Trace, ReplayTraceJsonShape) {
  const std::string doc = job_result_trace_json(synthetic_result());
  EXPECT_NE(doc.find("\"schema\":\"flexmr.trace.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"map 0\""), std::string::npos);
  EXPECT_NE(doc.find("\"reduce 1000000\""), std::string::npos);
  EXPECT_NE(doc.find("lost-output"), std::string::npos);
}

TEST(Trace, ReplayTraceOfEmptyResultIsValid) {
  const std::string doc = job_result_trace_json(JobResult{});
  EXPECT_NE(doc.find("\"schema\":\"flexmr.trace.v1\""), std::string::npos);
  // Job span present even with no tasks; no node processes.
  EXPECT_NE(doc.find("\"job\""), std::string::npos);
}

TEST(Trace, ReplayPacksOverlappingTasksOntoDistinctLanes) {
  JobResult result;
  result.finish_time = 10;
  for (TaskId id = 0; id < 3; ++id) {
    TaskRecord task;
    task.id = id;
    task.node = 2;
    task.dispatch_time = 0;
    task.compute_start = 1;
    task.end_time = 10;
    result.tasks.push_back(task);
  }
  const std::string doc = job_result_trace_json(result);
  // Three fully-overlapping tasks on one node need lanes 1..3.
  EXPECT_NE(doc.find("\"lane 1\""), std::string::npos);
  EXPECT_NE(doc.find("\"lane 3\""), std::string::npos);
}

TEST(Trace, GanttAndReplayPutEachTaskOnTheSameLane) {
  // The FlexMap golden fault run: a crash with rejoin, attempt and fetch
  // failures and speculation keep several lanes per node busy.
  auto cluster = cluster::presets::virtual20();
  workloads::RunConfig config;
  config.params.seed = 1234;
  config.faults = golden::golden_fault_plan();
  const JobResult result = workloads::run_job(
      cluster, workloads::benchmark("WC"), workloads::InputScale::kSmall,
      workloads::SchedulerKind::kFlexMap, config);
  const std::vector<TaskLane> packed = pack_lanes(result);
  ASSERT_EQ(packed.size(), result.tasks.size());

  // The replay emits one span per task, in packing order, on thread
  // lane + 1 of the task's node.
  const std::string doc = job_result_trace_json(result);
  std::size_t k = 0;
  for (std::size_t pos = doc.find("{\"ph\":\"X\""); pos != std::string::npos;
       pos = doc.find("{\"ph\":\"X\"", pos + 1)) {
    if (doc.compare(doc.find("\"cat\":", pos), 13, "\"cat\":\"phase\"") == 0) {
      continue;  // job and map-phase spans
    }
    ASSERT_LT(k, packed.size());
    const auto field = [&](const char* key) {
      const std::size_t at = doc.find(key, pos) + std::string(key).size();
      return std::strtoul(doc.c_str() + at, nullptr, 10);
    };
    EXPECT_EQ(field("\"pid\":"), obs::node_pid(packed[k].task->node)) << k;
    EXPECT_EQ(field("\"tid\":"), packed[k].lane + 1) << k;
    ++k;
  }
  EXPECT_EQ(k, packed.size());

  // The chart draws each task on row `lane` of its node: redraw the busy
  // cells from the packing and compare them row by row.
  constexpr std::size_t kWidth = 120;
  const SimTime t0 = result.submit_time;
  const double scale = static_cast<double>(kWidth) / (result.finish_time - t0);
  const auto col = [&](SimTime t) {
    return std::min(static_cast<std::size_t>((t - t0) * scale), kWidth - 1);
  };
  std::vector<std::size_t> first_row;
  std::vector<std::string> rows;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    first_row.push_back(rows.size());
    rows.resize(rows.size() + cluster.machine(n).slots(),
                std::string(kWidth, '.'));
  }
  std::size_t overflow = 0;
  for (const auto& [task, lane] : packed) {
    const std::uint32_t slots = cluster.machine(task->node).slots();
    if (lane >= slots) ++overflow;
    std::string& row = rows[first_row[task->node] + (lane < slots ? lane : 0)];
    const std::size_t from = col(task->dispatch_time);
    for (std::size_t c = from; c <= std::max(from, col(task->end_time)); ++c) {
      row[c] = '*';
    }
  }
  std::istringstream lines(gantt(result, cluster, kWidth));
  std::string line;
  std::getline(lines, line);  // legend
  for (const std::string& expected : rows) {
    ASSERT_TRUE(std::getline(lines, line));
    std::string busy = line.substr(line.find('|') + 1, kWidth);
    std::replace_if(busy.begin(), busy.end(),
                    [](char c) { return c != '.'; }, '*');
    EXPECT_EQ(busy, expected) << line;
  }
  EXPECT_EQ(overflow, 0u);
}

}  // namespace
}  // namespace flexmr::mr
