// A real multi-threaded mini-MapReduce engine.
//
// This is the runtime counterpart of the simulator: worker threads execute
// genuine map/reduce functions over an in-memory Dataset. Heterogeneity is
// emulated by duty-cycle throttling (a worker with speed 0.25 sleeps 3x
// the time it computes), and the per-task startup cost that motivates
// coarse tasks is emulated with a fixed sleep — the JVM-startup analogue.
//
// Two drivers share all machinery:
//   * run_fixed    — stock Hadoop's model: every map task is a fixed
//                    number of chunks, bound up front;
//   * run_elastic  — FlexMap's model: tasks are bound late from a shared
//                    pool, sized per worker by Algorithm 1 (productivity-
//                    driven vertical growth + speed-proportional
//                    horizontal scaling), using the same DynamicSizer the
//                    simulator uses.
//
// The reduce output is exact and independent of scheduling, which the
// property tests exploit: fixed and elastic runs must produce identical
// results.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "flexmap/sizing.hpp"
#include "rt/dataset.hpp"
#include "rt/udf.hpp"

namespace flexmr::obs {
class EventTracer;
}

namespace flexmr::rt {

struct WorkerSpec {
  WorkerSpec(double initial_speed = 1.0,
             std::vector<std::pair<double, double>> speed_schedule = {})
      : speed(initial_speed), schedule(std::move(speed_schedule)) {}

  /// Relative speed in (0, 1]: 1 = full speed, 0.25 = 4x slower.
  double speed = 1.0;
  /// Optional speed changes: (seconds since job start, new speed) pairs in
  /// ascending time order — the runtime analogue of the simulator's
  /// interference models (a VM neighbor arriving mid-job).
  std::vector<std::pair<double, double>> schedule;

  double speed_at(double elapsed_seconds) const {
    double current = speed;
    for (const auto& [at, value] : schedule) {
      if (elapsed_seconds < at) break;
      current = value;
    }
    return current;
  }
};

struct EngineConfig {
  std::uint32_t num_reducers = 4;
  /// Fixed per-map-task startup cost (the "JVM startup" analogue).
  std::chrono::microseconds task_startup{2000};
  flexmap::SizingOptions sizing;  ///< Used by run_elastic.
  /// Opt-in tracing: one X span per map task on the rt-engine track
  /// (pid obs::kRtEnginePid, tid = worker index), timestamps in wall
  /// seconds since job start. The tracer's own mutex makes concurrent
  /// worker emissions safe. Null disables.
  obs::EventTracer* tracer = nullptr;
};

struct RtTaskRecord {
  std::size_t worker = 0;
  std::size_t num_chunks = 0;
  double startup_seconds = 0;
  double work_seconds = 0;
  double productivity() const {
    const double total = startup_seconds + work_seconds;
    return total > 0 ? work_seconds / total : 0;
  }
};

struct RtResult {
  /// Final reduced key → value map (ordered for easy comparison).
  std::map<std::string, Value> output;
  double map_wall_seconds = 0;
  double total_wall_seconds = 0;
  std::vector<RtTaskRecord> tasks;
  std::vector<std::size_t> chunks_per_worker;

  std::size_t map_tasks() const { return tasks.size(); }
  double mean_task_chunks() const;
};

class MapReduceEngine {
 public:
  MapReduceEngine(std::vector<WorkerSpec> workers, EngineConfig config);

  /// Stock model: ceil(chunks / chunks_per_task) tasks of uniform size.
  RtResult run_fixed(const Dataset& dataset, const MapFn& map_fn,
                     const ReduceFn& reduce_fn,
                     std::size_t chunks_per_task);

  /// FlexMap model: late-bound, elastically sized tasks.
  RtResult run_elastic(const Dataset& dataset, const MapFn& map_fn,
                       const ReduceFn& reduce_fn);

 private:
  enum class Mode { kFixed, kElastic };
  RtResult run(const Dataset& dataset, const MapFn& map_fn,
               const ReduceFn& reduce_fn, Mode mode,
               std::size_t chunks_per_task);

  std::vector<WorkerSpec> workers_;
  EngineConfig config_;
};

}  // namespace flexmr::rt
