// JobDriver's internals, included only by the driver's own files: the
// attempt types, one base for map and reduce attempts.
//
// Attempt timeline (launch_attempt, start_compute, rerate in driver.cpp):
//   dispatch ──(container_alloc + jvm_startup [+ extra])──▶ compute start
//   compute ──(rate-integrated at node speed / cost)──▶ completion
// Interference changes re-rate the integrator and re-schedule the
// cancellable completion event. A reducer fetches between the two.
//
// Reduce phase: starts when the last BU is credited. Reducer r gets weight
// w_r of every map output; its fetch moves the non-node-local share over
// the NIC (discounted by shuffle_overlap for the early-shuffle Hadoop
// performs), then reduce compute is rate-integrated like a map.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "faults/injector.hpp"
#include "hdfs/replica_manager.hpp"
#include "mr/driver.hpp"
#include "obs/session.hpp"
#include "simcore/rate_integrator.hpp"

namespace flexmr::mr {

/// Reducer r's task id is kReduceIdBase + r; map ids count up from 0.
inline constexpr TaskId kReduceIdBase = 1'000'000;

enum class JobDriver::TaskPhase { kStarting, kFetching, kComputing, kDone };

/// Attempt-level fate drawn at dispatch from the fault injector: the
/// container launch fails during startup, or the attempt dies a
/// fraction of the way through its compute.
enum class JobDriver::PlannedFault { kNone, kLaunchFail, kAttemptFail };

/// What the timeline tracks for one attempt, map or reduce.
struct JobDriver::Attempt {
  TaskId id = 0;
  NodeId node = kInvalidNode;  ///< Assigned at dispatch (late binding).
  /// Per-attempt execution-time multiplier (GC pauses, I/O variance —
  /// lognormal with unit mean). Twins draw independently.
  double exec_noise = 1.0;
  SimTime dispatch_time = 0;
  SimTime compute_start = 0;
  TaskPhase phase = TaskPhase::kStarting;
  PlannedFault planned_fault = PlannedFault::kNone;
  double fail_frac = 0;        ///< Compute fraction at which it dies.
  std::optional<RateIntegrator> integrator;
  EventId pending_event = kInvalidEvent;
};

struct JobDriver::MapTask : Attempt {
  std::vector<BlockUnitId> bus;
  MiB size = 0;
  double avg_cost = 1.0;       ///< Size-weighted mean BU cost.
  double local_fraction = 1.0; ///< Bytes with a replica on `node`.
  bool speculative = false;
  TaskId twin = kInvalidTask;  ///< Original/copy counterpart, if any.
  bool credited = false;       ///< Completed (or partial) and counted.
  bool output_lost = false;    ///< Host failed; input was re-queued.
  /// Exactly one task of an original/copy pair owns the BU list (both
  /// hold duplicates): the owner returns it to the index if the work
  /// dies. Ownership transfers to a surviving twin when the owner is
  /// killed — without the transfer, a second failure hitting the twin
  /// would silently drop the BUs (exactly-once violation).
  bool owns_bus = true;
};

struct JobDriver::ReduceTask : Attempt {
  double share = 0;            ///< Fraction of intermediate data.
  MiB input = 0;
  MiB remote = 0;
  /// Map-output hosts whose fetch failed this attempt, FIFO. The reducer
  /// retries the front source with exponential backoff and reports each
  /// failure to the AM (Hadoop's fetch-failure notification).
  std::vector<NodeId> failed_fetch_sources;
  std::uint32_t fetch_attempt = 0;  ///< Retries against the front source.
};

}  // namespace flexmr::mr
