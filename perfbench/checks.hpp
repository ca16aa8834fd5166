// Output checks on the public results of a simulated job, and the digest
// that lets a performance change show its simulated outputs did not move.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "hdfs/block.hpp"
#include "mr/job.hpp"
#include "mr/metrics.hpp"

namespace perfbench {

using namespace flexmr;

/// FNV-1a, the hash the repository's golden tests pin result JSON with.
inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t hash = 1469598103934665603ull) {
  for (const unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

inline std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Concurrent task intervals per node, over any number of jobs' records.
class SlotOverlap {
 public:
  void add(const mr::JobResult& result) {
    for (const auto& task : result.tasks) {
      auto& list = events_[task.node];
      list.emplace_back(task.dispatch_time, +1);
      list.emplace_back(task.end_time, -1);
    }
  }

  /// Appends a failure for every node whose overlap exceeds its slots.
  void check(const cluster::Cluster& cluster,
             std::vector<std::string>& failures) {
    for (auto& [node, list] : events_) {
      // Ends sort before starts at equal times: a freed slot is reusable.
      std::sort(list.begin(), list.end());
      int depth = 0;
      for (const auto& [time, delta] : list) {
        depth += delta;
        if (depth > static_cast<int>(cluster.machine(node).slots())) {
          failures.push_back("node " + std::to_string(node) + " runs " +
                             std::to_string(depth) + " tasks at t=" +
                             std::to_string(time));
          break;
        }
      }
    }
  }

 private:
  std::map<NodeId, std::vector<std::pair<SimTime, int>>> events_;
};

/// Aggregate speed-weighted slot capacity, in cost-1 MiB per second.
inline double cluster_capacity(const cluster::Cluster& cluster) {
  double capacity = 0;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    const auto& spec = cluster.machine(n).spec();
    capacity += spec.slots * spec.base_ips;
  }
  return capacity;
}

/// A re-dispatched reduce attempt whose record still carries the compute
/// start of the attempt before it (the node-lost and map-output-lost
/// requeue paths do not reset it). Reported as a known defect.
inline bool stale_reduce_compute_start(const mr::TaskRecord& t) {
  return t.kind == mr::TaskKind::kReduce && t.compute_start > 0 &&
         t.compute_start < t.dispatch_time;
}

/// Checks one job's public result against the invariants every run must
/// keep; appends one line per violation and returns the number of records
/// showing the known stale-compute-start defect. An aborted job (a
/// structured JobAbortedError / DataLossError outcome) is only checked for
/// ordering.
inline std::uint64_t check_job(const mr::JobResult& r,
                               const hdfs::FileLayout& layout,
                               const mr::JobSpec& spec, double capacity,
                               std::vector<std::string>& failures) {
  const std::string tag = r.scheduler + ": ";
  std::uint64_t stale = 0;
  bool unordered = false;
  for (const auto& t : r.tasks) {
    const bool ordered =
        t.end_time >= t.dispatch_time &&
        (t.compute_start <= 0 ||
         (t.compute_start >= t.dispatch_time && t.end_time >= t.compute_start));
    if (ordered) continue;
    if (stale_reduce_compute_start(t) && t.end_time >= t.dispatch_time) {
      ++stale;
    } else if (!unordered) {
      unordered = true;
      failures.push_back(tag + "task " + std::to_string(t.id) +
                         " has an unordered timeline");
    }
  }
  if (r.aborted) return stale;
  if (!(r.submit_time <= r.map_phase_start &&
        r.map_phase_start <= r.map_phase_end &&
        r.map_phase_end <= r.finish_time + 1e-9)) {
    failures.push_back(tag + "phase boundaries out of order");
  }
  std::uint64_t credited = 0;
  for (const auto& t : r.tasks) {
    if (t.kind == mr::TaskKind::kMap && t.credited()) credited += t.num_bus;
  }
  if (credited != layout.bus.size()) {
    failures.push_back(tag + std::to_string(credited) + " BUs credited of " +
                       std::to_string(layout.bus.size()));
  }
  const double floor_s = layout.total_work() * spec.map_cost / capacity;
  if (r.jct() < floor_s) {
    failures.push_back(tag + "JCT " + std::to_string(r.jct()) +
                       " s is below the capacity bound " +
                       std::to_string(floor_s) + " s");
  }
  return stale;
}

}  // namespace perfbench
