// AM crash injection + journaled job recovery (replay-don't-redo).
//
// The tentpole invariant under test: killing the AppMaster at ANY point of
// the job — before the first map, mid-map, at shuffle start, mid-reduce,
// just before the last commit — and restarting it from the journal yields
// the same credited work totals as the crash-free run (exactly-once across
// the restart), while redoing strictly less work than starting from
// scratch. Plus: attempt-budget aborts, probabilistic (MTTF) AM death,
// snapshot-cadence invariance, journal artifact shape, multi-job and
// service survival of AM loss, and a pinned golden for a mid-map crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/presets.hpp"
#include "mr/multi_job.hpp"
#include "mr/result_json.hpp"
#include "obs/session.hpp"
#include "recover/runner.hpp"
#include "service/service.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

using faults::FaultPlan;
using workloads::InputScale;
using workloads::RunConfig;
using workloads::SchedulerKind;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

workloads::Benchmark bench_with(MiB input, double shuffle) {
  auto bench = workloads::benchmark("WC");
  bench.small_input = input;
  bench.shuffle_ratio = shuffle;
  return bench;
}

std::size_t credited_bus(const mr::JobResult& result) {
  std::size_t credited = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      credited += task.num_bus;
    }
  }
  return credited;
}

MiB credited_mib(const mr::JobResult& result) {
  MiB total = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      total += task.input_mib;
    }
  }
  return total;
}

mr::JobResult run_case(SchedulerKind kind, const FaultPlan& plan) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults = plan;
  return workloads::run_job(cluster, bench_with(2048.0, 0.25),
                            InputScale::kSmall, kind, config);
}

std::string sweep_param_name(
    const ::testing::TestParamInfo<SchedulerKind>& info) {
  std::string label = workloads::scheduler_label(info.param);
  std::erase_if(label, [](char c) {
    return !std::isalnum(static_cast<unsigned char>(c));
  });
  return label;
}

class RecoverySweep : public ::testing::TestWithParam<SchedulerKind> {};

constexpr std::size_t kTotalBus = 256;  // 2048 MiB / 8 MiB block units.

// The tentpole sweep: five crash points spanning the whole job lifecycle.
// Every recovered run must credit the same totals as the crash-free run
// and redo strictly less work than a from-scratch re-execution would.
TEST_P(RecoverySweep, CrashAtEveryPhaseRecoversExactlyOnce) {
  const auto baseline = run_case(GetParam(), FaultPlan{});
  ASSERT_FALSE(baseline.aborted);
  ASSERT_EQ(credited_bus(baseline), kTotalBus);
  const std::size_t baseline_reduces =
      baseline.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted);

  struct CrashPoint {
    const char* label;
    SimTime at;
  };
  const SimTime map_mid =
      0.5 * (baseline.map_phase_start + baseline.map_phase_end);
  const SimTime reduce_mid =
      0.5 * (baseline.map_phase_end + baseline.finish_time);
  const CrashPoint points[] = {
      {"pre-map", 0.01},
      {"mid-map", map_mid},
      {"shuffle-start", baseline.map_phase_end + 0.5},
      {"mid-reduce", reduce_mid},
      {"pre-commit", baseline.finish_time - 1.0},
  };
  for (const CrashPoint& point : points) {
    FaultPlan plan;
    plan.am_crashes = {point.at};
    const auto result = run_case(GetParam(), plan);
    EXPECT_FALSE(result.aborted) << point.label;
    EXPECT_EQ(result.am_restarts, 1u) << point.label;
    ASSERT_EQ(result.am_attempts.size(), 1u) << point.label;
    // Crash-free totals are reproduced exactly: every BU credited once,
    // every reducer completed once.
    EXPECT_EQ(credited_bus(result), kTotalBus) << point.label;
    EXPECT_NEAR(credited_mib(result), 2048.0, 1e-6) << point.label;
    EXPECT_EQ(result.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted),
              baseline_reduces)
        << point.label;
    // Replay-don't-redo: the restart re-runs strictly less than the whole
    // map phase, and once work has committed the journal replays it.
    EXPECT_LT(result.redone_work_units, kTotalBus) << point.label;
    if (point.at >= map_mid) {
      EXPECT_GT(result.am_attempts[0].replayed_units, 0u) << point.label;
    }
    if (point.at > baseline.map_phase_end) {
      // Map phase fully committed before the crash: all of it replays.
      EXPECT_EQ(result.am_attempts[0].replayed_units, kTotalBus)
          << point.label;
    }
    // AM downtime and redone work cost time; recovery is never free.
    EXPECT_GE(result.jct(), baseline.jct()) << point.label;
    EXPECT_GE(result.am_attempts[0].restart_time,
              result.am_attempts[0].crash_time)
        << point.label;
  }
}

// Recovered runs are bit-reproducible: the same crash plan twice gives
// byte-identical result JSON.
TEST_P(RecoverySweep, CrashedRunsAreByteDeterministic) {
  const auto baseline = run_case(GetParam(), FaultPlan{});
  FaultPlan plan;
  plan.am_crashes = {
      0.5 * (baseline.map_phase_start + baseline.map_phase_end)};
  const auto first = run_case(GetParam(), plan);
  const auto second = run_case(GetParam(), plan);
  EXPECT_EQ(mr::job_result_json(first), mr::job_result_json(second));
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, RecoverySweep,
    ::testing::Values(SchedulerKind::kHadoop, SchedulerKind::kHadoopNoSpec,
                      SchedulerKind::kSkewTune, SchedulerKind::kFlexMap),
    sweep_param_name);

// Snapshot cadence is an internal journal compaction: it must not change
// a single byte of the recovered run's result — only how much log tail
// replay has to walk.
TEST(Recovery, SnapshotIntervalDoesNotChangeTheResult) {
  const auto baseline = run_case(SchedulerKind::kFlexMap, FaultPlan{});
  FaultPlan plan;
  plan.am_crashes = {
      0.5 * (baseline.map_phase_start + baseline.map_phase_end)};
  // The result JSON echoes the fault plan verbatim, so the knob itself
  // differs between runs; blank it out before comparing — everything the
  // job actually DID must be byte-identical.
  // (The default interval is elided from the echo entirely, so the field
  // may be absent.)
  auto scrub = [](std::string json) {
    const std::string key = "\"am_snapshot_interval_s\":";
    const std::size_t at = json.find(key);
    if (at == std::string::npos) return json;
    const std::size_t end = json.find(',', at);
    return json.erase(at, end - at + 1);
  };
  std::string reference;
  for (const SimDuration interval : {0.0, 5.0, 60.0}) {
    FaultPlan p = plan;
    p.am_snapshot_interval_s = interval;
    const std::string json = scrub(mr::job_result_json(run_case(
        SchedulerKind::kFlexMap, p)));
    if (reference.empty()) {
      reference = json;
    } else {
      EXPECT_EQ(json, reference) << "snapshot interval " << interval;
    }
  }
}

// A crash on the final allowed attempt aborts with a structured error
// carrying the merged result.
TEST(Recovery, AttemptBudgetExhaustionAborts) {
  FaultPlan plan;
  plan.am_crashes = {5.0};
  plan.am_max_attempts = 1;
  try {
    run_case(SchedulerKind::kHadoop, plan);
    FAIL() << "expected JobAbortedError";
  } catch (const mr::JobAbortedError& e) {
    EXPECT_NE(std::string(e.what()).find("am_max_attempts"),
              std::string::npos);
    EXPECT_TRUE(e.result().aborted);
    ASSERT_EQ(e.result().am_attempts.size(), 1u);
    EXPECT_DOUBLE_EQ(e.result().am_attempts[0].crash_time, 5.0);
  }
}

// Probabilistic AM death: with a short MTTF and a generous attempt budget
// the job survives repeated crashes and still credits everything once.
TEST(Recovery, MttfCrashesRecoverUntilCompletion) {
  FaultPlan plan;
  plan.am_crash_mttf_s = 60.0;
  plan.am_max_attempts = 64;
  const auto result = run_case(SchedulerKind::kHadoop, plan);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(credited_bus(result), kTotalBus);
  EXPECT_EQ(result.am_restarts,
            static_cast<std::uint32_t>(result.am_attempts.size()));
}

// The journal artifact itself: append-only log, snapshot fold, and the
// flexmr.journal.v1 JSON document CI shape-checks.
TEST(Recovery, JournalRecordsAndSnapshotsAreInspectable) {
  auto cluster = cluster::presets::homogeneous6();
  Simulator sim;
  const auto bench = bench_with(2048.0, 0.25);
  const auto layout = workloads::make_layout(
      bench, InputScale::kSmall, cluster.num_nodes(), 64.0, 3, 1234);
  auto spec = workloads::to_job_spec(bench, InputScale::kSmall);
  const auto scheduler = workloads::make_scheduler(SchedulerKind::kHadoop);

  FaultPlan plan;
  plan.am_crashes = {10.0};
  plan.am_snapshot_interval_s = 5.0;
  recover::RecoveryRunner runner(sim, cluster, layout, spec, mr::SimParams{},
                                 *scheduler, plan);
  const auto result = runner.run();
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(runner.attempts_started(), 2u);

  const recover::JobJournal& journal = runner.journal();
  EXPECT_GT(journal.total_appends(), 0u);
  EXPECT_GT(journal.snapshots_taken(), 0u);
  const std::string json = journal.to_json();
  EXPECT_NE(json.find("flexmr.journal.v1"), std::string::npos);
  EXPECT_NE(json.find("committed_maps"), std::string::npos);
  EXPECT_NE(json.find("snapshots_taken"), std::string::npos);

  // Replay of the final journal equals the job's committed truth: by job
  // end every BU has committed exactly once.
  const recover::RecoveredState replayed = journal.replay();
  EXPECT_EQ(replayed.replayed_units(), kTotalBus);
  EXPECT_TRUE(replayed.reduce_planned);
  EXPECT_EQ(replayed.committed_reduces.size(),
            static_cast<std::size_t>(replayed.num_reducers));
}

// Multi-job: one job's AM dies while a neighbour shares the cluster; the
// crashed job recovers from its journal, the neighbour is untouched, and
// both credit exactly-once.
TEST(Recovery, MultiJobSurvivesSingleAmCrash) {
  auto cluster = cluster::presets::homogeneous6();
  Simulator sim;
  const auto bench = bench_with(1024.0, 0.25);
  const auto layout = workloads::make_layout(
      bench, InputScale::kSmall, cluster.num_nodes(), 64.0, 3, 7);
  auto spec = workloads::to_job_spec(bench, InputScale::kSmall);
  const auto sched_a = workloads::make_scheduler(SchedulerKind::kHadoop);
  const auto sched_b = workloads::make_scheduler(SchedulerKind::kFlexMap);

  mr::MultiJobCoordinator coord(sim, cluster, mr::SharePolicy::kFair);
  coord.submit(layout, spec, mr::SimParams{}, *sched_a, 0.0);
  coord.submit(layout, spec, mr::SimParams{}, *sched_b, 0.0);
  coord.set_am_recovery({2, 10.0});
  coord.schedule_am_crash(0, 8.0);
  const auto results = coord.run_all();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].aborted);
  EXPECT_FALSE(results[1].aborted);
  EXPECT_EQ(results[0].am_restarts, 1u);
  EXPECT_EQ(results[1].am_restarts, 0u);
  EXPECT_EQ(credited_bus(results[0]), 128u);
  EXPECT_EQ(credited_bus(results[1]), 128u);
  ASSERT_EQ(results[0].am_attempts.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].am_attempts[0].crash_time, 8.0);
  // The crashed job's JCT includes the 10 s restart downtime.
  EXPECT_GE(results[0].finish_time, 18.0);
}

// The multi-job attempt budget: a second crash on a 2-attempt budget kills
// the job for good while the neighbour still finishes.
TEST(Recovery, MultiJobAmBudgetExhaustionAbortsOnlyThatJob) {
  auto cluster = cluster::presets::homogeneous6();
  Simulator sim;
  const auto bench = bench_with(1024.0, 0.25);
  const auto layout = workloads::make_layout(
      bench, InputScale::kSmall, cluster.num_nodes(), 64.0, 3, 7);
  auto spec = workloads::to_job_spec(bench, InputScale::kSmall);
  const auto sched_a = workloads::make_scheduler(SchedulerKind::kHadoop);
  const auto sched_b = workloads::make_scheduler(SchedulerKind::kHadoop);

  mr::MultiJobCoordinator coord(sim, cluster, mr::SharePolicy::kFair);
  coord.submit(layout, spec, mr::SimParams{}, *sched_a, 0.0);
  coord.submit(layout, spec, mr::SimParams{}, *sched_b, 0.0);
  coord.set_am_recovery({2, 10.0});
  coord.schedule_am_crash(0, 8.0);
  coord.schedule_am_crash(0, 20.0);
  const auto results = coord.run_all();

  EXPECT_TRUE(coord.am_aborted(0));
  EXPECT_TRUE(results[0].aborted);
  EXPECT_NE(results[0].abort_reason.find("am_max_attempts"),
            std::string::npos);
  EXPECT_FALSE(results[1].aborted);
  EXPECT_EQ(credited_bus(results[1]), 128u);
}

// The service keeps an AM-crashed job in its admission slot through the
// downtime, the job's JCT absorbs the restart, and the whole stream stays
// byte-deterministic.
TEST(Recovery, ServiceSurvivesAmLossDeterministically) {
  service::ServiceConfig config;
  service::TenantSpec tenant;
  tenant.name = "analytics";
  tenant.arrivals_per_hour = 240.0;
  tenant.benchmarks = {"WC"};
  tenant.scheduler = SchedulerKind::kFlexMap;
  config.tenants = {tenant};
  config.total_jobs = 4;
  config.max_concurrent_jobs = 2;
  config.params.seed = 99;
  config.am_crashes = {{0, 20.0}};

  auto run_service = [&](obs::TraceSession* trace) {
    auto cluster = cluster::presets::homogeneous6();
    Simulator sim;
    service::ClusterService svc(sim, cluster, config);
    svc.set_trace(trace);
    return svc.run();
  };
  const auto result = run_service(nullptr);
  EXPECT_EQ(result.total_jobs, 4u);
  EXPECT_EQ(result.am_restarts, 1u);
  ASSERT_EQ(result.jobs.size(), 4u);
  EXPECT_EQ(result.jobs[0].am_restarts, 1u);
  for (const auto& job : result.jobs) {
    EXPECT_FALSE(job.aborted) << "job " << job.job;
    EXPECT_GE(job.finish, job.admitted) << "job " << job.job;
  }
  const std::string json = result.json();
  EXPECT_NE(json.find("\"am_restarts\""), std::string::npos);
  // The successor AM records into the same trace session as its
  // predecessor; tracing leaves the run unchanged.
  obs::TraceSession trace;
  EXPECT_EQ(json, run_service(&trace).json());
}

// Pinned golden: a mid-map AM crash on the paper's 20-node virtual
// cluster. Regenerate with FLEXMR_REGEN_GOLDEN=1 after intentional
// changes (same contract as test_golden_determinism.cpp).
TEST(Recovery, MidMapAmCrashGolden) {
  constexpr std::uint64_t kExpected = 0xc4fd10a581aa81e8ull;
  auto cluster = cluster::presets::virtual20();
  RunConfig config;
  config.params.seed = 1234;
  config.faults.am_crashes = {40.0};
  const auto result =
      workloads::run_job(cluster, workloads::benchmark("WC"),
                         InputScale::kSmall, SchedulerKind::kHadoop, config);
  ASSERT_FALSE(result.aborted);
  ASSERT_EQ(result.am_restarts, 1u);
  // Mid-map: some but not all of the map phase had committed at t=40.
  EXPECT_GT(result.am_attempts[0].replayed_units, 0u);
  EXPECT_LT(result.am_attempts[0].replayed_units, credited_bus(result));
  const std::uint64_t hash = fnv1a(mr::job_result_json(result, cluster));
  if (std::getenv("FLEXMR_REGEN_GOLDEN") != nullptr) {
    std::printf("    MidMapAmCrashGolden: 0x%016llxull\n",
                static_cast<unsigned long long>(hash));
    FAIL() << "FLEXMR_REGEN_GOLDEN set: update kExpected and re-run";
  }
  EXPECT_EQ(hash, kExpected);
}

}  // namespace
}  // namespace flexmr
