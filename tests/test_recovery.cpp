// AM crash injection + journaled job recovery (replay-don't-redo).
//
// The tentpole invariant under test: killing the AppMaster at ANY point of
// the job — before the first map, mid-map, at shuffle start, mid-reduce,
// just before the last commit — and restarting it from the journal yields
// the same credited work totals as the crash-free run (exactly-once across
// the restart), while redoing strictly less work than starting from
// scratch. Plus: node loss and disk faults around a restart, attempt-
// budget aborts, probabilistic (MTTF) AM death, snapshot-cadence
// invariance, journal artifact shape, multi-job and service survival of AM
// loss, a pinned golden for a mid-map crash, pinned hashes for the AM
// paths no golden reaches, and node deaths no attempt detected before the
// node rejoined.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/presets.hpp"
#include "mr/multi_job.hpp"
#include "mr/result_json.hpp"
#include "obs/session.hpp"
#include "recover/runner.hpp"
#include "service/service.hpp"
#include "simcore/simulator.hpp"
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

// bench_scale's machine classes on 16 nodes, without interference: 2 fast
// servers, 10 mid servers and 4 slow desktops, 4 slots each.
cluster::Cluster mixed16() {
  const cluster::MachineSpec fast{.model = "fast", .base_ips = 14.0};
  const cluster::MachineSpec mid{.model = "mid", .base_ips = 11.0};
  const cluster::MachineSpec slow{.model = "slow", .base_ips = 4.0};
  return cluster::ClusterBuilder()
      .add(fast, 2)
      .add(mid, 10)
      .add(slow, 4)
      .build();
}

constexpr std::size_t kMixed16Bus = 1280;  // 10240 MiB / 8 MiB.

// WC over 10 GiB on mixed16 with an AM crash at t = 60 s on top of
// `config`'s faults; every BU must be credited exactly once.
void expect_mixed16_recovers(SchedulerKind kind, RunConfig config) {
  auto cluster = mixed16();
  config.faults.am_crashes = {60.0};
  const auto result =
      workloads::run_job(cluster, bench_with(10240.0, 0.25),
                         InputScale::kSmall, kind, config);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.am_restarts, 1u);
  EXPECT_EQ(credited_bus(result), kMixed16Bus);
}

// A disk fault drops a static rs(6,3) part holder before the AM crash; the
// successor's fresh block index must not list it, or repair landing the
// part back on that node would add it twice.
TEST_P(RecoverySweep, AmRestartAfterDiskFaultReplaysDroppedHolders) {
  RunConfig config;
  config.storage = hdfs::StoragePolicy::rs(6, 3);
  config.params.seed = 8;
  config.faults.crashes = {{10, 23.632, 120.39, true}};
  config.faults.disk_faults = {{7, 0, 53.77}};
  expect_mixed16_recovers(GetParam(), config);
}

// The AM's successor loses the output of maps an earlier attempt committed
// (node 1 dies silently and is detected after the restart) and re-runs
// their units; the merged records must void the earlier commits.
TEST_P(RecoverySweep, MergedRecordsVoidReplayedCommitsTheSuccessorLoses) {
  RunConfig config;
  config.params.seed = 32;
  config.faults.crashes = {{1, 32.857, 119.383, true}};
  expect_mixed16_recovers(GetParam(), config);
}

// Node 10 of virtual20 dies where no AM attempt detects it before it
// rejoins at 50 s: the AM crashes at 30 s, and its successor starts at
// 40 s, before heartbeat expiry could fire. The successor dispatches onto
// the dead node, and those attempts freeze in startup, so the job finishes
// only if the rejoin runs the loss path first. The chain is stepped under
// a simulated-time cap instead of through run_job: heartbeats keep the
// event queue busy forever, so a job that never finishes would spin.
void expect_rejoin_reconciles_the_death(SchedulerKind kind,
                                        faults::NodeCrash crash) {
  constexpr SimTime kCap = 2000.0;
  const auto bench = workloads::benchmark("WC");
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto cluster = cluster::presets::virtual20();
    RunConfig config;
    config.params.seed = seed;
    config.faults.crashes = {crash};
    config.faults.am_crashes = {30.0};
    const auto layout = workloads::make_layout(
        bench, InputScale::kSmall, cluster.num_nodes(), config.block_size,
        config.replication, seed, config.storage);
    const auto scheduler = workloads::make_scheduler(kind);
    Simulator sim;
    mr::AmAttemptChain chain(
        sim, std::make_unique<mr::JobDriver>(
                 sim, cluster, layout,
                 workloads::to_job_spec(bench, InputScale::kSmall),
                 config.params, *scheduler));
    chain.driver().install_faults(config.faults);
    chain.enable_recovery({config.faults.am_max_attempts,
                           config.faults.am_restart_delay_s});
    chain.start();
    chain.driver().resource_manager().set_offer_handler(
        [&chain](NodeId node) { return chain.driver().offer(node); });
    sim.schedule_at(30.0, [&chain]() { chain.crash(); });
    while (!chain.finished() && sim.now() < kCap && sim.step()) {}
    if (!chain.finished()) {
      ADD_FAILURE() << "unfinished at simulated " << sim.now() << " s";
      continue;
    }
    const mr::JobResult result = chain.result();
    EXPECT_FALSE(result.aborted) << result.abort_reason;
    EXPECT_EQ(result.am_restarts, 1u);
    EXPECT_EQ(layout.bus.size(), 2560u);
    EXPECT_EQ(credited_bus(result), layout.bus.size());
    const auto first = [&result](faults::FaultEventType type) {
      return std::find_if(result.fault_events.begin(),
                          result.fault_events.end(),
                          [type](const faults::FaultEvent& e) {
                            return e.type == type && e.node == 10;
                          });
    };
    const auto detected = first(faults::FaultEventType::kDetected);
    const auto rejoin = first(faults::FaultEventType::kRejoin);
    ASSERT_NE(detected, result.fault_events.end());
    ASSERT_NE(rejoin, result.fault_events.end());
    EXPECT_LT(detected, rejoin);
  }
}

// The node dies silently at 25 s, before the AM crash, and the successor
// starts with no record of it.
TEST_P(RecoverySweep, SuccessorReconcilesSilentDeathAtRejoin) {
  expect_rejoin_reconciles_the_death(GetParam(), {10, 25.0, 50.0, true});
}

// The node dies at 35 s, inside the AM downtime: no attempt sees the crash.
TEST_P(RecoverySweep, SuccessorReconcilesDeathDuringDowntimeAtRejoin) {
  expect_rejoin_reconciles_the_death(GetParam(), {10, 35.0, 50.0, false});
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
    EXPECT_EQ(fnv1a(mr::job_result_json(e.result())), 0x02957a7473a70f5dull);
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
  EXPECT_EQ(fnv1a(mr::job_result_json(result)), 0x0f3df0e6e2223c19ull);
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
  EXPECT_EQ(fnv1a(mr::job_result_json(results[0])), 0x6e194b3ac8c53fabull);
  EXPECT_EQ(fnv1a(mr::job_result_json(results[1])), 0x63ff0d7440ba6995ull);
}

// A node that dies while a shared-cluster job's AM is down takes the loss
// path in the successor: the outputs of the job's maps there are lost and
// re-run, as when the node dies just before the AM crash.
TEST(Recovery, MultiJobNodeDeathDuringAmDowntimeLosesItsOutputs) {
  for (const SimTime death : {17.45, 19.0}) {
    auto cluster = cluster::presets::homogeneous6();
    Simulator sim;
    const auto bench = bench_with(1024.0, 0.25);
    const auto layout = workloads::make_layout(
        bench, InputScale::kSmall, cluster.num_nodes(), 64.0, 3, 7);
    const auto spec = workloads::to_job_spec(bench, InputScale::kSmall);
    const auto sched_a =
        workloads::make_scheduler(SchedulerKind::kHadoopNoSpec);
    const auto sched_b =
        workloads::make_scheduler(SchedulerKind::kHadoopNoSpec);
    mr::MultiJobCoordinator coord(sim, cluster, mr::SharePolicy::kFair);
    coord.submit(layout, spec, mr::SimParams{}, *sched_a, 0.0);
    coord.submit(layout, spec, mr::SimParams{}, *sched_b, 0.0);
    coord.set_am_recovery({2, 30.0});
    coord.schedule_am_crash(0, 17.5);
    coord.schedule_node_failure(1, death);
    const mr::JobResult result = coord.run_all()[0];

    EXPECT_FALSE(result.aborted) << "death at " << death;
    EXPECT_EQ(result.am_restarts, 1u) << "death at " << death;
    EXPECT_EQ(credited_bus(result), 128u) << "death at " << death;
    std::size_t lost = 0;
    for (const auto& task : result.tasks) {
      if (task.kind != mr::TaskKind::kMap || task.node != 1) continue;
      EXPECT_FALSE(task.credited())
          << "death at " << death << ": map " << task.id;
      if (task.status == mr::TaskStatus::kLostOutput) ++lost;
    }
    EXPECT_EQ(lost, 3u) << "death at " << death;
    for (const auto type : {faults::FaultEventType::kCrash,
                            faults::FaultEventType::kDetected}) {
      EXPECT_TRUE(std::any_of(result.fault_events.begin(),
                              result.fault_events.end(),
                              [type](const faults::FaultEvent& e) {
                                return e.type == type && e.node == 1;
                              }))
          << "death at " << death << ": no " << faults::to_string(type);
    }
  }
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
  // The abort is recorded as a single job's is: the last event, with the
  // simulator's counters at that moment.
  ASSERT_FALSE(results[0].fault_events.empty());
  const faults::FaultEvent& last = results[0].fault_events.back();
  EXPECT_EQ(last.type, faults::FaultEventType::kAbort);
  EXPECT_DOUBLE_EQ(last.time, 20.0);
  EXPECT_EQ(last.attempts, 2u);
  EXPECT_GT(results[0].sim_events_fired, 0u);
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
  EXPECT_EQ(fnv1a(json), 0x2b33dd5487bf8327ull);
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

/// A metrics CSV split into its header and numeric rows.
struct MetricsTable {
  std::vector<std::string> columns;
  std::vector<std::vector<double>> rows;

  explicit MetricsTable(const std::string& csv) {
    std::istringstream lines(csv);
    std::string line;
    std::getline(lines, line);
    std::istringstream header(line);
    for (std::string cell; std::getline(header, cell, ',');) {
      columns.push_back(cell);
    }
    while (std::getline(lines, line)) {
      std::istringstream row(line);
      rows.emplace_back();
      for (std::string cell; std::getline(row, cell, ',');) {
        rows.back().push_back(std::stod(cell));
      }
    }
  }

  std::size_t column(const std::string& name) const {
    const auto it = std::find(columns.begin(), columns.end(), name);
    if (it == columns.end()) {
      ADD_FAILURE() << "no metrics column " << name;
      return 0;
    }
    return static_cast<std::size_t>(it - columns.begin());
  }
};

// Only attempt 1 registers the per-job gauges, so they must read the live
// attempt: after the restart the successor runs the rest of the job.
TEST(Recovery, TracedGaugesFollowTheRestartedAttempt) {
  auto cluster = cluster::presets::virtual20();
  obs::TraceSession trace;
  RunConfig config;
  config.params.seed = 1234;
  config.faults.am_crashes = {40.0};
  config.trace = &trace;
  const auto result =
      workloads::run_job(cluster, workloads::benchmark("WC"),
                         InputScale::kSmall, SchedulerKind::kHadoop, config);
  ASSERT_EQ(result.am_restarts, 1u);
  // Tracing leaves the pinned result alone (Recovery.MidMapAmCrashGolden).
  EXPECT_EQ(fnv1a(mr::job_result_json(result, cluster)),
            0xc4fd10a581aa81e8ull);

  const MetricsTable table(trace.metrics_csv());
  const std::size_t ts = table.column("ts_s");
  const std::size_t pending = table.column("pending_map_bus");
  const std::size_t maps = table.column("running_maps");
  const std::size_t reduces = table.column("running_reduces");
  const SimTime restart = result.am_attempts[0].restart_time;
  double maps_after_restart = 0;
  double reduces_after_restart = 0;
  for (const auto& row : table.rows) {
    if (row[ts] <= restart) continue;
    maps_after_restart = std::max(maps_after_restart, row[maps]);
    reduces_after_restart = std::max(reduces_after_restart, row[reduces]);
  }
  EXPECT_GT(maps_after_restart, 0.0);
  EXPECT_GT(reduces_after_restart, 0.0);
  ASSERT_FALSE(table.rows.empty());
  EXPECT_DOUBLE_EQ(table.rows.back()[ts], result.finish_time);
  EXPECT_EQ(table.rows.back()[pending], 0.0);
}

// A crash that spends the last AM attempt aborts the job the way an
// in-attempt abort does: an "abort" instant on the fault track and one
// more fault_events count, in the final metrics row too.
TEST(Recovery, TracedBudgetExhaustionRecordsTheAbort) {
  auto run = [](obs::TraceSession* trace) {
    auto cluster = cluster::presets::virtual20();
    RunConfig config;
    config.params.seed = 1234;
    config.faults.am_crashes = {40.0, 90.0};
    config.faults.am_max_attempts = 2;
    config.trace = trace;
    try {
      workloads::run_job(cluster, workloads::benchmark("WC"),
                         InputScale::kSmall, SchedulerKind::kHadoop, config);
    } catch (const mr::JobAbortedError& e) {
      return e.result();
    }
    ADD_FAILURE() << "expected JobAbortedError";
    return mr::JobResult{};
  };
  obs::TraceSession trace;
  const mr::JobResult result = run(&trace);
  EXPECT_EQ(mr::job_result_json(result), mr::job_result_json(run(nullptr)));
  ASSERT_TRUE(result.aborted);
  ASSERT_FALSE(result.fault_events.empty());
  const faults::FaultEvent& last = result.fault_events.back();
  EXPECT_EQ(last.type, faults::FaultEventType::kAbort);
  EXPECT_DOUBLE_EQ(last.time, 90.0);
  EXPECT_EQ(last.attempts, 2u);

  EXPECT_NE(trace.trace_json().find("\"abort\""), std::string::npos);
  const auto events = static_cast<double>(result.fault_events.size());
  EXPECT_EQ(trace.metrics().counter_value("fault_events"),
            result.fault_events.size());
  const MetricsTable table(trace.metrics_csv());
  ASSERT_FALSE(table.rows.empty());
  EXPECT_EQ(table.rows.back()[table.column("fault_events")], events);
}

}  // namespace
}  // namespace flexmr
