#include "rt/engine.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "obs/tracer.hpp"

namespace flexmr::rt {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Duty-cycle throttle: a worker of speed s that computed for `busy`
/// seconds sleeps busy*(1/s - 1), so its effective throughput is s.
void throttle(double speed, double busy_seconds) {
  if (speed >= 1.0) return;
  const double sleep_seconds = busy_seconds * (1.0 / speed - 1.0);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(sleep_seconds));
}

std::size_t partition_of(const std::string& key, std::uint32_t reducers) {
  return std::hash<std::string>{}(key) % reducers;
}

}  // namespace

double RtResult::mean_task_chunks() const {
  if (tasks.empty()) return 0;
  double sum = 0;
  for (const auto& task : tasks) {
    sum += static_cast<double>(task.num_chunks);
  }
  return sum / static_cast<double>(tasks.size());
}

MapReduceEngine::MapReduceEngine(std::vector<WorkerSpec> workers,
                                 EngineConfig config)
    : workers_(std::move(workers)), config_(config) {
  FLEXMR_ASSERT(!workers_.empty());
  FLEXMR_ASSERT(config_.num_reducers > 0);
  for (const auto& worker : workers_) {
    FLEXMR_ASSERT(worker.speed > 0.0 && worker.speed <= 1.0);
    double last = 0.0;
    for (const auto& [at, value] : worker.schedule) {
      FLEXMR_ASSERT(at >= last);
      FLEXMR_ASSERT(value > 0.0 && value <= 1.0);
      last = at;
    }
  }
}

RtResult MapReduceEngine::run_fixed(const Dataset& dataset,
                                    const MapFn& map_fn,
                                    const ReduceFn& reduce_fn,
                                    std::size_t chunks_per_task) {
  FLEXMR_ASSERT(chunks_per_task > 0);
  return run(dataset, map_fn, reduce_fn, Mode::kFixed, chunks_per_task);
}

RtResult MapReduceEngine::run_elastic(const Dataset& dataset,
                                      const MapFn& map_fn,
                                      const ReduceFn& reduce_fn) {
  return run(dataset, map_fn, reduce_fn, Mode::kElastic, 1);
}

RtResult MapReduceEngine::run(const Dataset& dataset, const MapFn& map_fn,
                              const ReduceFn& reduce_fn, Mode mode,
                              std::size_t chunks_per_task) {
  const std::size_t total_chunks = dataset.num_chunks();
  const std::uint32_t reducers = config_.num_reducers;

  // Shared map-phase state. The chunk pool is a cursor: both modes consume
  // chunks in order, they differ only in how many a task takes (late
  // binding means the count is decided when a worker goes idle).
  std::mutex state_mutex;
  std::size_t next_chunk = 0;

  // Per-worker observed throughput (chunks/second of *compute+throttle*
  // wall time) — the runtime SpeedMonitor. Guarded by state_mutex.
  std::vector<double> observed_speed(workers_.size(), 0.0);
  flexmap::DynamicSizer sizer(
      static_cast<std::uint32_t>(workers_.size()), config_.sizing);

  // Shuffle staging: each completed map task appends its combined output
  // per partition.
  std::vector<std::vector<std::unordered_map<std::string, Value>>>
      partitions(reducers);

  RtResult result;
  result.chunks_per_worker.assign(workers_.size(), 0);
  std::mutex result_mutex;

  const auto job_start = Clock::now();

  obs::EventTracer* const tracer = config_.tracer;
  if (tracer != nullptr) {
    tracer->set_process_name(obs::kRtEnginePid, "rt engine");
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      tracer->set_thread_name(obs::kRtEnginePid,
                              static_cast<std::uint32_t>(w),
                              "worker " + std::to_string(w));
    }
    tracer->set_thread_name(obs::kRtEnginePid,
                            static_cast<std::uint32_t>(workers_.size()),
                            "reduce");
  }

  auto worker_loop = [&](std::size_t worker_index) {
    const WorkerSpec& spec = workers_[worker_index];
    for (;;) {
      // Decide this task's size and claim its chunks (late binding).
      std::size_t begin;
      std::size_t count;
      std::uint32_t epoch = 0;
      {
        std::lock_guard lock(state_mutex);
        if (next_chunk >= total_chunks) return;
        if (mode == Mode::kFixed) {
          count = chunks_per_task;
        } else {
          double slowest = 0.0;
          double own = observed_speed[worker_index];
          for (const double s : observed_speed) {
            if (s > 0.0 && (slowest == 0.0 || s < slowest)) slowest = s;
          }
          const double relative =
              (own > 0.0 && slowest > 0.0) ? own / slowest : 1.0;
          epoch = sizer.epoch(
              static_cast<NodeId>(worker_index));
          count = sizer.task_size(static_cast<NodeId>(worker_index),
                                  relative);
        }
        count = std::min(count, total_chunks - next_chunk);
        begin = next_chunk;
        next_chunk += count;
      }

      // Task startup cost (JVM-startup analogue): fixed wall time.
      const auto task_start = Clock::now();
      std::this_thread::sleep_for(config_.task_startup);
      const double startup = seconds_since(task_start);

      // Map the chunks, throttled to the worker's (time-varying) speed.
      const auto work_start = Clock::now();
      Emitter emitter;
      for (std::size_t c = begin; c < begin + count; ++c) {
        const auto chunk_start = Clock::now();
        map_fn(dataset.chunk(c), emitter);
        const double speed = spec.speed_at(seconds_since(job_start));
        throttle(speed, seconds_since(chunk_start));
      }
      const double work = seconds_since(work_start);

      // Partition the combined output into the shuffle staging area.
      std::vector<std::unordered_map<std::string, Value>> split(reducers);
      for (auto& [key, value] : emitter.take()) {
        split[partition_of(key, reducers)].emplace(key, value);
      }

      RtTaskRecord record;
      record.worker = worker_index;
      record.num_chunks = count;
      record.startup_seconds = startup;
      record.work_seconds = work;

      if (tracer != nullptr) {
        // X (complete) events only: B/E nesting is per-tid and workers
        // run concurrently, so self-contained spans are the safe shape.
        const double task_ts =
            std::chrono::duration<double>(task_start - job_start).count();
        tracer->complete(
            {obs::kRtEnginePid, static_cast<std::uint32_t>(worker_index)},
            "map task", "rt", task_ts, seconds_since(task_start),
            {{"chunks", static_cast<std::uint64_t>(count)},
             {"startup_s", startup},
             {"work_s", work},
             {"productivity", record.productivity()}});
      }

      {
        std::lock_guard lock(result_mutex);
        for (std::uint32_t r = 0; r < reducers; ++r) {
          if (!split[r].empty()) {
            partitions[r].push_back(std::move(split[r]));
          }
        }
        result.tasks.push_back(record);
        result.chunks_per_worker[worker_index] += count;
      }
      {
        std::lock_guard lock(state_mutex);
        // Startup is excluded: it is the same for every worker, and on a
        // one-chunk task it would hide the speed gap the sizer scales by.
        if (work > 0) {
          observed_speed[worker_index] = static_cast<double>(count) / work;
        }
        if (mode == Mode::kElastic) {
          sizer.on_task_complete(static_cast<NodeId>(worker_index), epoch,
                                 record.productivity());
        }
      }
    }
  };

  {
    std::vector<std::thread> threads;
    threads.reserve(workers_.size());
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      threads.emplace_back(worker_loop, w);
    }
    for (auto& thread : threads) thread.join();
  }
  result.map_wall_seconds = seconds_since(job_start);

  // Reduce phase: one task per partition, spread over the workers.
  const auto reduce_start = Clock::now();
  std::vector<std::map<std::string, Value>> reduced(reducers);
  {
    std::atomic<std::uint32_t> next_partition{0};
    auto reduce_loop = [&]() {
      for (;;) {
        const std::uint32_t r = next_partition.fetch_add(1);
        if (r >= reducers) return;
        std::unordered_map<std::string, std::vector<Value>> grouped;
        for (const auto& piece : partitions[r]) {
          for (const auto& [key, value] : piece) {
            grouped[key].push_back(value);
          }
        }
        for (const auto& [key, values] : grouped) {
          reduced[r][key] = reduce_fn(key, values);
        }
      }
    };
    std::vector<std::thread> threads;
    const std::size_t reduce_threads =
        std::min<std::size_t>(workers_.size(), reducers);
    threads.reserve(reduce_threads);
    for (std::size_t w = 0; w < reduce_threads; ++w) {
      threads.emplace_back(reduce_loop);
    }
    for (auto& thread : threads) thread.join();
  }
  for (auto& piece : reduced) {
    result.output.merge(piece);
  }
  result.total_wall_seconds = seconds_since(job_start);
  if (tracer != nullptr) {
    tracer->complete(
        {obs::kRtEnginePid, static_cast<std::uint32_t>(workers_.size())},
        "reduce phase", "rt",
        std::chrono::duration<double>(reduce_start - job_start).count(),
        seconds_since(reduce_start),
        {{"partitions", static_cast<std::uint64_t>(reducers)}});
  }
  return result;
}

}  // namespace flexmr::rt
