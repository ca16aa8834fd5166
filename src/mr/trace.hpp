// Trace export and visualization for JobResults: a CSV task-timeline
// writer for offline analysis, and an ASCII Gantt renderer that makes load
// imbalance visible at a glance (one row per slot-lane per node, map tasks
// as '=', reduce tasks as '#', killed work as 'x').
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mr/metrics.hpp"

namespace flexmr::mr {

/// CSV with one row per task: id, kind, status, node, speculative,
/// dispatch, compute_start, end, input_mib, num_bus, productivity.
std::string trace_csv(const JobResult& result);

/// A task record and the 0-based lane of its node it is drawn on.
struct TaskLane {
  const TaskRecord* task;
  std::uint32_t lane;
};

/// The lane packer behind gantt() and job_result_trace_json(): tasks in
/// (dispatch, id) order, each on the lowest lane of its node that is free
/// at its dispatch time. Lanes are not capped at the node's slot count (a
/// JobResult alone does not know it), so overlapping tasks never share
/// one.
std::vector<TaskLane> pack_lanes(const JobResult& result);

/// ASCII Gantt chart of the job, `width` characters across the JCT span,
/// one row per slot of each node. Tasks keep their pack_lanes() lane; one
/// packed past its node's slots is drawn on the node's first row.
std::string gantt(const JobResult& result, const cluster::Cluster& cluster,
                  std::size_t width = 100);

/// Replay converter: rebuilds a flexmr.trace.v1 document from a finished
/// JobResult — one X span per task record on its pack_lanes() lane,
/// job/map-phase spans on the job track, and the fault timeline as
/// instants. Coarser than a live trace (no per-phase children, no metrics
/// rows) but available for any run after the fact.
std::string job_result_trace_json(const JobResult& result);

}  // namespace flexmr::mr
