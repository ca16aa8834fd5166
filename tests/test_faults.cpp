// The fault-injection subsystem: FaultPlan validation, silent crashes with
// heartbeat-expiry detection, node rejoin, transient attempt/launch
// failures with retries, AM blacklisting, max_attempts aborts, and the
// exactly-once invariant under every fault type across all schedulers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "cluster/presets.hpp"
#include "common/rng.hpp"
#include "mr/result_json.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

using faults::FaultEvent;
using faults::FaultEventType;
using faults::FaultPlan;
using faults::NodeCrash;
using workloads::InputScale;
using workloads::RunConfig;
using workloads::SchedulerKind;

workloads::Benchmark bench_with(MiB input, double shuffle) {
  auto bench = workloads::benchmark("WC");
  bench.small_input = input;
  bench.shuffle_ratio = shuffle;
  return bench;
}

void check_exactly_once(const mr::JobResult& result,
                        std::size_t total_bus) {
  std::size_t credited = 0;
  for (const auto& task : result.tasks) {
    if (task.kind == mr::TaskKind::kMap && task.credited()) {
      credited += task.num_bus;
    }
  }
  EXPECT_EQ(credited, total_bus);
}

std::size_t count_events(const mr::JobResult& result, FaultEventType type) {
  return static_cast<std::size_t>(
      std::count_if(result.fault_events.begin(), result.fault_events.end(),
                    [type](const FaultEvent& e) { return e.type == type; }));
}

const FaultEvent* first_event(const mr::JobResult& result,
                              FaultEventType type) {
  for (const auto& e : result.fault_events) {
    if (e.type == type) return &e;
  }
  return nullptr;
}

std::string sweep_param_name(
    const ::testing::TestParamInfo<SchedulerKind>& info) {
  std::string label = workloads::scheduler_label(info.param);
  std::erase_if(label, [](char c) {
    return !std::isalnum(static_cast<unsigned char>(c));
  });
  return label;
}

class FaultSweep : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(FaultSweep, TransientAttemptFailuresAreRetriedExactlyOnce) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.attempt_failure_prob = 0.15;
  const auto result = workloads::run_job(
      cluster, bench_with(2048.0, 0.25), InputScale::kSmall, GetParam(),
      config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 256);
  // The sweep rate makes failures a statistical certainty over ~32 tasks.
  EXPECT_GT(count_events(result, FaultEventType::kAttemptFailure), 0u)
      << workloads::scheduler_label(GetParam());
  EXPECT_GT(result.count(mr::TaskKind::kMap, mr::TaskStatus::kFailed), 0u);
}

TEST_P(FaultSweep, ContainerLaunchFailuresAreRetriedExactlyOnce) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  // Kept moderate: a launch failure charges an attempt to every BU the
  // container bundled, so FlexMap's large elastic tasks approach
  // max_attempts much faster than fixed-size schedulers at high rates.
  config.faults.container_launch_failure_prob = 0.1;
  const auto result = workloads::run_job(
      cluster, bench_with(2048.0, 0.25), InputScale::kSmall, GetParam(),
      config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 256);
  EXPECT_GT(count_events(result, FaultEventType::kLaunchFailure), 0u)
      << workloads::scheduler_label(GetParam());
}

TEST_P(FaultSweep, SilentCrashIsDetectedOnlyAfterLivenessTimeout) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.crashes = {NodeCrash{2, 20.0, std::nullopt, true}};
  const auto result = workloads::run_job(
      cluster, bench_with(4096.0, 0.25), InputScale::kSmall, GetParam(),
      config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 512);
  const FaultEvent* crash = first_event(result, FaultEventType::kCrash);
  const FaultEvent* detected =
      first_event(result, FaultEventType::kDetected);
  ASSERT_NE(crash, nullptr);
  ASSERT_NE(detected, nullptr);
  EXPECT_DOUBLE_EQ(crash->time, 20.0);
  // The AM cannot learn of the death before a full liveness timeout has
  // elapsed since the node's last heartbeat — that wasted window is the
  // whole point of silent crashes.
  EXPECT_GE(detected->time, 20.0 + config.faults.node_liveness_timeout_s -
                                config.params.heartbeat_period_s - 1e-9);
  EXPECT_GE(detected->time - 20.0, config.faults.node_liveness_timeout_s -
                                       config.params.heartbeat_period_s);
  // Until detection the AM may still dispatch into the dead node's idle
  // slots (that work is doomed) — but nothing CREDITS there after the
  // ground-truth death, and nothing dispatches after detection.
  for (const auto& task : result.tasks) {
    if (task.node != 2) continue;
    if (task.credited()) {
      EXPECT_LE(task.end_time, 20.0 + 1e-9);
    }
    EXPECT_LT(task.dispatch_time, detected->time);
  }
}

TEST_P(FaultSweep, FailureAtTimeZeroStillCompletes) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.crashes = {NodeCrash{0, 0.0, std::nullopt, false}};
  const auto result = workloads::run_job(
      cluster, bench_with(1024.0, 0.25), InputScale::kSmall, GetParam(),
      config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 128);
  for (const auto& task : result.tasks) {
    EXPECT_NE(task.node, 0u);
  }
}

TEST_P(FaultSweep, EveryNodeFailingAbortsWithDataLoss) {
  // With replication 3 on six nodes the job does not survive long enough
  // for "every node failed": the third crash already wipes all replicas
  // of some unread block, so the run aborts early with a structured
  // DataLossError naming the lost blocks.
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  for (NodeId n = 0; n < cluster.num_nodes(); ++n) {
    config.faults.crashes.push_back(
        NodeCrash{n, 5.0 + static_cast<SimTime>(n), std::nullopt, false});
  }
  try {
    workloads::run_job(cluster, bench_with(4096.0, 0.25),
                       InputScale::kSmall, GetParam(), config);
    FAIL() << "expected DataLossError";
  } catch (const mr::DataLossError& e) {
    EXPECT_TRUE(e.result().aborted);
    EXPECT_NE(e.result().abort_reason.find("data loss"), std::string::npos)
        << e.result().abort_reason;
    ASSERT_FALSE(e.lost_blocks().empty());
    for (const std::uint32_t block : e.lost_blocks()) {
      EXPECT_NE(e.result().abort_reason.find(std::to_string(block)),
                std::string::npos)
          << "block " << block << " missing from: "
          << e.result().abort_reason;
    }
    EXPECT_EQ(count_events(e.result(), FaultEventType::kAbort), 1u);
    EXPECT_EQ(count_events(e.result(), FaultEventType::kDataLoss),
              e.lost_blocks().size());
    EXPECT_GT(count_events(e.result(), FaultEventType::kReplicaLost), 0u);
    // The abort preempted the remaining crashes.
    const auto crashes = count_events(e.result(), FaultEventType::kCrash);
    EXPECT_GE(crashes, 3u);
    EXPECT_LT(crashes, 6u);
  }
}

TEST_P(FaultSweep, FailureDuringReducePhaseReexecutesLostMaps) {
  // Satellite: a node dying after the shuffle started takes its map output
  // with it — the driver must re-open the map phase, not hang.
  auto probe_cluster = cluster::presets::homogeneous6();
  const auto reference = workloads::run_job(
      probe_cluster, bench_with(1024.0, 1.0), InputScale::kSmall,
      GetParam(), RunConfig{});
  const SimTime fail_at = reference.map_phase_end + 1.0;
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.crashes = {NodeCrash{3, fail_at, std::nullopt, false}};
  const auto result = workloads::run_job(
      cluster, bench_with(1024.0, 1.0), InputScale::kSmall, GetParam(),
      config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 128);
  // The dead node's credited maps were un-credited and re-executed.
  EXPECT_GT(result.count(mr::TaskKind::kMap, mr::TaskStatus::kLostOutput),
            0u)
      << workloads::scheduler_label(GetParam());
  EXPECT_EQ(result.count(mr::TaskKind::kReduce, mr::TaskStatus::kCompleted),
            reference.count(mr::TaskKind::kReduce,
                            mr::TaskStatus::kCompleted));
}

TEST_P(FaultSweep, RejoinMidMapPhaseRestoresTheNode) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.crashes = {NodeCrash{1, 10.0, 45.0, false}};
  const auto result = workloads::run_job(
      cluster, bench_with(8192.0, 0.25), InputScale::kSmall, GetParam(),
      config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 1024);
  ASSERT_EQ(count_events(result, FaultEventType::kRejoin), 1u);
  const FaultEvent* rejoin = first_event(result, FaultEventType::kRejoin);
  EXPECT_DOUBLE_EQ(rejoin->time, 45.0);
  // The node went dark between crash and rejoin, then worked again.
  bool dispatched_after_rejoin = false;
  for (const auto& task : result.tasks) {
    if (task.node != 1) continue;
    EXPECT_TRUE(task.dispatch_time < 10.0 + 1e-9 ||
                task.dispatch_time >= 45.0 - 1e-9);
    if (task.dispatch_time >= 45.0) dispatched_after_rejoin = true;
  }
  EXPECT_TRUE(dispatched_after_rejoin)
      << workloads::scheduler_label(GetParam());
}

TEST_P(FaultSweep, SingleNodeLossAtReplicationThreeSurvives) {
  // Acceptance: with replication 3 a job survives any single permanent
  // node loss, and the NameNode restores the replication factor on the
  // survivors (re-replication events appear in the timeline).
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.crashes = {NodeCrash{2, 20.0, std::nullopt, false}};
  const auto result = workloads::run_job(
      cluster, bench_with(4096.0, 0.25), InputScale::kSmall, GetParam(),
      config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 512);
  EXPECT_GT(count_events(result, FaultEventType::kReplicaLost), 0u)
      << workloads::scheduler_label(GetParam());
  EXPECT_GT(count_events(result, FaultEventType::kReReplicated), 0u)
      << workloads::scheduler_label(GetParam());
  EXPECT_EQ(count_events(result, FaultEventType::kDataLoss), 0u);
  // Re-replicated copies never land on the dead node.
  for (const auto& e : result.fault_events) {
    if (e.type == FaultEventType::kReReplicated) {
      EXPECT_NE(e.node, 2u);
      EXPECT_NE(e.block, faults::kInvalidBlock);
    }
  }
  const std::string json = mr::job_result_json(result);
  EXPECT_NE(json.find("\"replica-lost\""), std::string::npos);
  EXPECT_NE(json.find("\"re-replicated\""), std::string::npos);
}

TEST_P(FaultSweep, TransientFetchFailuresRetryAndComplete) {
  // Reducers hit transient shuffle-fetch failures, back off, retry, and
  // the job still completes with every BU credited exactly once.
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.fetch_failure_prob = 0.1;
  const auto result = workloads::run_job(
      cluster, bench_with(2048.0, 1.0), InputScale::kSmall, GetParam(),
      config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 256);
  EXPECT_GT(count_events(result, FaultEventType::kFetchFailure), 0u)
      << workloads::scheduler_label(GetParam());
  const std::string json = mr::job_result_json(result);
  EXPECT_NE(json.find("\"fetch-failure\""), std::string::npos);
}

TEST_P(FaultSweep, LateCrashesRequeueDispatchedReducers) {
  // Silent crashes with rejoin between 20 and 120 s reach the reduce
  // phase, while fetch and launch failures keep re-opening the map phase
  // and requeuing reducers. A node lost while it holds a dispatched
  // reducer must requeue that reducer in either phase, or the reducer
  // stays frozen there and the job never finishes. A requeued reducer
  // whose next attempt dies before its fetch starts must not report the
  // earlier attempt's compute start. Each seed broke one or both rules
  // for some scheduler before requeuing had a single implementation.
  for (const std::uint64_t seed : {2u, 96u, 163u}) {
    auto cluster = cluster::ClusterBuilder()
                       .add({.model = "fast", .base_ips = 14.0, .slots = 4}, 3)
                       .add({.model = "mid", .base_ips = 11.0, .slots = 4}, 5)
                       .add({.model = "slow", .base_ips = 4.0, .slots = 4}, 4)
                       .build();
    const auto bench = bench_with(8192.0, 0.5);
    FaultPlan plan;
    Rng rng(seed);
    const auto crashes = 1 + rng() % 3;
    for (std::uint64_t i = 0; i < crashes; ++i) {
      const SimTime at = 20.0 + 100.0 * rng.uniform();
      NodeId node = 0;
      do {
        node = static_cast<NodeId>(rng() % cluster.num_nodes());
      } while (std::any_of(
          plan.crashes.begin(), plan.crashes.end(),
          [node](const NodeCrash& c) { return c.node == node; }));
      plan.crashes.push_back(
          NodeCrash{node, at, at + 30.0 + 60.0 * rng.uniform(), true});
    }
    plan.fetch_failure_prob = 0.01;
    plan.container_launch_failure_prob = 0.02;
    plan.max_attempts = 8;

    const auto layout = workloads::make_layout(
        bench, InputScale::kSmall, cluster.num_nodes(), 64.0, 3, seed);
    const auto spec = workloads::to_job_spec(bench, InputScale::kSmall);
    const auto scheduler = workloads::make_scheduler(GetParam(), seed);
    Simulator sim;
    mr::SimParams params;
    params.seed = seed;
    mr::JobDriver driver(sim, cluster, layout, spec, params, *scheduler);
    driver.install_faults(plan);
    driver.start();
    // The jobs finish within ~150 simulated seconds; a stalled job keeps
    // heartbeating forever, so the run is cut instead of hanging.
    while (!driver.done() && sim.now() < 5000.0 && sim.step()) {
    }
    const std::string label =
        workloads::scheduler_label(GetParam()) + " seed " +
        std::to_string(seed);
    ASSERT_TRUE(driver.done()) << label << " stalled at t=" << sim.now();
    EXPECT_FALSE(driver.result().aborted) << label;
    check_exactly_once(driver.result(), layout.bus.size());
    for (const auto& task : driver.result().tasks) {
      if (task.kind != mr::TaskKind::kReduce) continue;
      EXPECT_FALSE(task.compute_start > 0 &&
                   task.compute_start < task.dispatch_time)
          << label << ": reducer " << task.id << " dispatched at "
          << task.dispatch_time << " reports compute start "
          << task.compute_start;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, FaultSweep,
    ::testing::Values(SchedulerKind::kHadoop, SchedulerKind::kHadoopNoSpec,
                      SchedulerKind::kSkewTune, SchedulerKind::kFlexMap),
    sweep_param_name);

TEST(Faults, RejoinBeforeDetectionStillResyncsState) {
  // The node dies silently and comes back before the liveness timeout
  // expires: the rejoin itself must surface the death (lost in-flight
  // work) before the node is readmitted.
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.crashes = {NodeCrash{2, 10.0, 15.0, true}};
  const auto result = workloads::run_job(
      cluster, bench_with(4096.0, 0.25), InputScale::kSmall,
      SchedulerKind::kHadoopNoSpec, config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 512);
  EXPECT_EQ(count_events(result, FaultEventType::kDetected), 1u);
  EXPECT_EQ(count_events(result, FaultEventType::kRejoin), 1u);
}

TEST(Faults, MaxAttemptsExceededAbortsWithStructuredError) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.attempt_failure_prob = 1.0;  // every attempt dies
  try {
    workloads::run_job(cluster, bench_with(512.0, 0.25), InputScale::kSmall,
                       SchedulerKind::kHadoopNoSpec, config);
    FAIL() << "expected JobAbortedError";
  } catch (const mr::JobAbortedError& e) {
    EXPECT_TRUE(e.result().aborted);
    EXPECT_NE(e.result().abort_reason.find("attempts"), std::string::npos)
        << e.result().abort_reason;
    EXPECT_EQ(count_events(e.result(), FaultEventType::kAbort), 1u);
    // The doomed unit was retried exactly max_attempts times.
    const FaultEvent* abort =
        first_event(e.result(), FaultEventType::kAbort);
    ASSERT_NE(abort, nullptr);
    std::uint32_t worst = 0;
    for (const auto& ev : e.result().fault_events) {
      worst = std::max(worst, ev.attempts);
    }
    EXPECT_EQ(worst, config.faults.max_attempts);
  }
}

TEST(Faults, RepeatOffenderNodeGetsBlacklisted) {
  auto cluster = cluster::presets::physical12();
  RunConfig config;
  config.faults.node_attempt_failure_prob = {{0, 1.0}};  // node 0 is toxic
  const auto result = workloads::run_job(
      cluster, bench_with(2048.0, 0.25), InputScale::kSmall,
      SchedulerKind::kHadoopNoSpec, config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 256);
  ASSERT_EQ(count_events(result, FaultEventType::kBlacklist), 1u);
  const FaultEvent* blacklist =
      first_event(result, FaultEventType::kBlacklist);
  EXPECT_EQ(blacklist->node, 0u);
  EXPECT_EQ(blacklist->attempts, config.faults.blacklist_threshold);
  // No dispatches on the blacklisted node once the AM stopped trusting it.
  for (const auto& task : result.tasks) {
    if (task.node == 0) {
      EXPECT_LE(task.dispatch_time, blacklist->time + 1e-9);
    }
  }
}

TEST(Faults, DegradedWindowSlowsTheRunButPreservesCorrectness) {
  auto baseline_cluster = cluster::presets::homogeneous6();
  const auto baseline = workloads::run_job(
      baseline_cluster, bench_with(2048.0, 0.25), InputScale::kSmall,
      SchedulerKind::kHadoopNoSpec, RunConfig{});
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.degradations = {
      faults::DegradedWindow{0, 0.0, 1e6, 0.25}};
  const auto degraded = workloads::run_job(
      cluster, bench_with(2048.0, 0.25), InputScale::kSmall,
      SchedulerKind::kHadoopNoSpec, config);
  EXPECT_FALSE(degraded.aborted);
  check_exactly_once(degraded, 256);
  EXPECT_GT(degraded.jct(), baseline.jct());
}

TEST(Faults, FaultRunsAreDeterministicPerSeed) {
  RunConfig config;
  config.params.seed = 1234;
  config.faults.attempt_failure_prob = 0.1;
  config.faults.container_launch_failure_prob = 0.05;
  config.faults.crashes = {NodeCrash{4, 15.0, 60.0, true}};
  auto cluster_a = cluster::presets::homogeneous6();
  const auto a = workloads::run_job(cluster_a, bench_with(2048.0, 0.5),
                                    InputScale::kSmall,
                                    SchedulerKind::kFlexMap, config);
  auto cluster_b = cluster::presets::homogeneous6();
  const auto b = workloads::run_job(cluster_b, bench_with(2048.0, 0.5),
                                    InputScale::kSmall,
                                    SchedulerKind::kFlexMap, config);
  EXPECT_EQ(mr::job_result_json(a), mr::job_result_json(b));
}

TEST(Faults, EmptyPlanLeavesRunsByteIdentical) {
  RunConfig plain;
  auto cluster_a = cluster::presets::homogeneous6();
  const auto a = workloads::run_job(cluster_a, bench_with(1024.0, 0.25),
                                    InputScale::kSmall,
                                    SchedulerKind::kHadoop, plain);
  RunConfig with_empty_plan;
  with_empty_plan.faults = FaultPlan{};  // still empty()
  auto cluster_b = cluster::presets::homogeneous6();
  const auto b = workloads::run_job(cluster_b, bench_with(1024.0, 0.25),
                                    InputScale::kSmall,
                                    SchedulerKind::kHadoop,
                                    with_empty_plan);
  EXPECT_EQ(mr::job_result_json(a), mr::job_result_json(b));
}

TEST(Faults, ResultJsonCarriesSeedPlanAndTimeline) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.params.seed = 77;
  config.faults.crashes = {NodeCrash{2, 20.0, std::nullopt, true}};
  const auto result = workloads::run_job(
      cluster, bench_with(4096.0, 0.25), InputScale::kSmall,
      SchedulerKind::kHadoop, config);
  EXPECT_EQ(result.seed, 77u);
  const std::string json = mr::job_result_json(result);
  EXPECT_NE(json.find("\"seed\":77"), std::string::npos);
  EXPECT_NE(json.find("\"aborted\":false"), std::string::npos);
  EXPECT_NE(json.find("\"fault_plan\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_events\""), std::string::npos);
  EXPECT_NE(json.find("\"crash\""), std::string::npos);
  EXPECT_NE(json.find("\"detected\""), std::string::npos);
}

TEST(Faults, PerNodeProbabilityOverridesClusterWide) {
  FaultPlan plan;
  plan.attempt_failure_prob = 0.1;
  plan.node_attempt_failure_prob = {{3, 0.8}};
  EXPECT_DOUBLE_EQ(plan.attempt_failure_prob_for(0), 0.1);
  EXPECT_DOUBLE_EQ(plan.attempt_failure_prob_for(3), 0.8);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(Faults, CrashWithoutReReplicationStillSurvivesOnRemainingReplicas) {
  // Same single-node loss with the NameNode's re-replication disabled:
  // the job survives on the two remaining replicas, and no re-replicated
  // event appears in the timeline.
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.crashes = {NodeCrash{2, 20.0, std::nullopt, false}};
  config.faults.re_replication = false;
  const auto result = workloads::run_job(
      cluster, bench_with(4096.0, 0.25), InputScale::kSmall,
      SchedulerKind::kHadoopNoSpec, config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 512);
  EXPECT_GT(count_events(result, FaultEventType::kReplicaLost), 0u);
  EXPECT_EQ(count_events(result, FaultEventType::kReReplicated), 0u);
}

TEST(Faults, KillingEveryHolderOfUnreadBlockRaisesDataLoss) {
  // Acceptance: killing all replica holders of a block the job has not
  // finished reading aborts with a DataLossError naming the block ids.
  // Nodes 0, 1, 2 together hold every replica of the round-robin blocks
  // that start on node 0; killing them in the first two seconds (before
  // re-replication can copy more than a block or two — disabled here for
  // determinism) guarantees loss.
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.re_replication = false;
  config.faults.crashes = {NodeCrash{0, 1.0, std::nullopt, false},
                           NodeCrash{1, 1.5, std::nullopt, false},
                           NodeCrash{2, 2.0, std::nullopt, false}};
  try {
    workloads::run_job(cluster, bench_with(4096.0, 0.25),
                       InputScale::kSmall, SchedulerKind::kHadoopNoSpec,
                       config);
    FAIL() << "expected DataLossError";
  } catch (const mr::DataLossError& e) {
    ASSERT_FALSE(e.lost_blocks().empty());
    EXPECT_EQ(e.lost_blocks(), e.result().lost_blocks);
    EXPECT_NE(e.result().abort_reason.find("data loss"), std::string::npos)
        << e.result().abort_reason;
    for (const std::uint32_t block : e.lost_blocks()) {
      EXPECT_NE(e.result().abort_reason.find(std::to_string(block)),
                std::string::npos);
    }
    EXPECT_EQ(count_events(e.result(), FaultEventType::kDataLoss),
              e.lost_blocks().size());
    // The partial result still carries the tasks and timeline so far.
    EXPECT_FALSE(e.result().tasks.empty());
    const std::string json = mr::job_result_json(e.result());
    EXPECT_NE(json.find("\"lost_blocks\""), std::string::npos);
    EXPECT_NE(json.find("\"data-loss\""), std::string::npos);
  }
}

TEST(Faults, TooManyFetchFailuresReexecuteTheSourceMap) {
  // Hadoop semantics: once a map output accumulates
  // max_fetch_failures_per_map failure reports, the AM declares the
  // output lost and re-executes the map. With the threshold at 1 every
  // fetch failure immediately costs a map re-execution.
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.fetch_failure_prob = 0.05;
  config.faults.max_fetch_failures_per_map = 1;
  const auto result = workloads::run_job(
      cluster, bench_with(2048.0, 1.0), InputScale::kSmall,
      SchedulerKind::kHadoopNoSpec, config);
  EXPECT_FALSE(result.aborted);
  check_exactly_once(result, 256);
  EXPECT_GT(count_events(result, FaultEventType::kFetchFailure), 0u);
  EXPECT_GT(count_events(result, FaultEventType::kMapOutputLost), 0u);
  EXPECT_GT(result.count(mr::TaskKind::kMap, mr::TaskStatus::kLostOutput),
            0u);
  const std::string json = mr::job_result_json(result);
  EXPECT_NE(json.find("\"map-output-lost\""), std::string::npos);
}

TEST(Faults, FetchFailureProbMakesThePlanNonEmpty) {
  FaultPlan plan;
  plan.fetch_failure_prob = 0.05;
  EXPECT_FALSE(plan.empty());
  // Data-plane tuning knobs alone do not make a plan non-empty: with no
  // fault source configured they can never fire.
  FaultPlan tuned;
  tuned.re_replication = false;
  tuned.fetch_retry_backoff_s = 2.0;
  tuned.max_fetch_failures_per_map = 7;
  tuned.re_replication_bandwidth_mibps = 50.0;
  EXPECT_TRUE(tuned.empty());
}

TEST(FaultValidation, RejectsBadDataPlaneKnobs) {
  {
    FaultPlan plan;
    plan.fetch_failure_prob = 1.5;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.fetch_failure_prob = -0.1;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.fetch_retry_backoff_s = 0.0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.max_fetch_failures_per_map = 0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.re_replication_bandwidth_mibps = 0.0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.re_replication_bandwidth_mibps = -25.0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.fetch_failure_prob = 0.2;
    plan.fetch_retry_backoff_s = 0.5;
    plan.max_fetch_failures_per_map = 5;
    plan.re_replication_bandwidth_mibps = 200.0;
    EXPECT_NO_THROW(plan.validate(6));
  }
}

TEST(FaultValidation, RejectsStructurallyBrokenPlans) {
  for (const bool silent : {true, false}) {
    {
      FaultPlan plan;
      plan.crashes = {NodeCrash{99, 10.0, std::nullopt, silent}};
      EXPECT_THROW(plan.validate(6), ConfigError);  // node out of range
    }
    {
      FaultPlan plan;
      plan.crashes = {NodeCrash{6, 10.0, std::nullopt, silent}};
      EXPECT_THROW(plan.validate(6), ConfigError);  // first id past the end
    }
    {
      FaultPlan plan;
      plan.crashes = {NodeCrash{1, -5.0, std::nullopt, silent}};
      EXPECT_THROW(plan.validate(6), ConfigError);  // negative crash time
    }
  }
  {
    FaultPlan plan;
    plan.crashes = {NodeCrash{1, 10.0, 5.0, true}};
    EXPECT_THROW(plan.validate(6), ConfigError);  // rejoin before crash
  }
  {
    FaultPlan plan;
    plan.crashes = {NodeCrash{1, 10.0, 50.0, true},
                    NodeCrash{1, 30.0, std::nullopt, true}};
    EXPECT_THROW(plan.validate(6), ConfigError);  // overlapping intervals
  }
  {
    FaultPlan plan;
    plan.attempt_failure_prob = 1.5;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.node_attempt_failure_prob = {{2, 0.5}, {2, 0.7}};
    EXPECT_THROW(plan.validate(6), ConfigError);  // duplicate override
  }
  {
    FaultPlan plan;
    plan.degradations = {faults::DegradedWindow{0, 20.0, 10.0, 0.5}};
    EXPECT_THROW(plan.validate(6), ConfigError);  // until <= from
  }
  {
    FaultPlan plan;
    plan.degradations = {faults::DegradedWindow{0, 0.0, 10.0, 0.0}};
    EXPECT_THROW(plan.validate(6), ConfigError);  // factor out of (0, 1]
  }
  {
    FaultPlan plan;
    plan.max_attempts = 0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;  // defaults are valid
    plan.crashes = {NodeCrash{0, 0.0, std::nullopt, true},
                    NodeCrash{5, 100.0, 200.0, false}};
    plan.degradations = {faults::DegradedWindow{3, 5.0, 25.0, 0.5}};
    plan.attempt_failure_prob = 0.2;
    EXPECT_NO_THROW(plan.validate(6));
  }
}

TEST(FaultValidation, DuplicateLegacyNodeFailureRejectedAtStart) {
  // Two permanent oracle crashes of the same node are rejected by the
  // plan's overlapping-crash-interval check when the run starts.
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.crashes = {NodeCrash{2, 10.0, std::nullopt, false},
                           NodeCrash{2, 30.0, std::nullopt, false}};
  EXPECT_THROW(workloads::run_job(cluster, bench_with(512.0, 0.25),
                                  InputScale::kSmall,
                                  SchedulerKind::kHadoop, config),
               ConfigError);
}

TEST(FaultValidation, BadPlanSurfacesAtRunStart) {
  auto cluster = cluster::presets::homogeneous6();
  RunConfig config;
  config.faults.crashes = {NodeCrash{17, 10.0, std::nullopt, true}};
  EXPECT_THROW(workloads::run_job(cluster, bench_with(512.0, 0.25),
                                  InputScale::kSmall,
                                  SchedulerKind::kHadoop, config),
               ConfigError);
}

TEST(FaultValidation, RejectsBadAmRecoveryKnobs) {
  {
    FaultPlan plan;
    plan.am_max_attempts = 0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.am_crashes = {-1.0};
    EXPECT_THROW(plan.validate(6), ConfigError);  // negative crash time
  }
  {
    FaultPlan plan;
    plan.am_crash_mttf_s = -60.0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.am_restart_delay_s = -0.5;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.am_snapshot_interval_s = -30.0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;  // a well-formed AM plan passes
    plan.am_crashes = {40.0, 120.0};
    plan.am_crash_mttf_s = 600.0;
    plan.am_max_attempts = 3;
    plan.am_restart_delay_s = 5.0;
    plan.am_snapshot_interval_s = 0.0;  // 0 = never snapshot, legal
    EXPECT_NO_THROW(plan.validate(6));
  }
}

TEST(FaultValidation, HorizonRejectsCrashesBeyondIt) {
  {
    FaultPlan plan;
    plan.am_crashes = {500.0};
    EXPECT_NO_THROW(plan.validate(6));  // no horizon: any future time
    EXPECT_THROW(plan.validate(6, 500.0), ConfigError);  // at the horizon
    EXPECT_THROW(plan.validate(6, 100.0), ConfigError);  // beyond it
    EXPECT_NO_THROW(plan.validate(6, 501.0));
  }
  {
    FaultPlan plan;
    plan.crashes = {NodeCrash{1, 500.0, std::nullopt, true}};
    EXPECT_NO_THROW(plan.validate(6));
    EXPECT_THROW(plan.validate(6, 400.0), ConfigError);
  }
}

TEST(FaultValidation, RejectsBadRecoveryBudgetKnobs) {
  {
    FaultPlan plan;
    plan.node_liveness_timeout_s = -1.0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.blacklist_threshold = 0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.blacklist_ignore_fraction = 1.5;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    FaultPlan plan;
    plan.container_launch_failure_prob = -0.2;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
}

TEST(FaultValidation, AmFaultsMakeThePlanNonEmpty) {
  FaultPlan fixed;
  fixed.am_crashes = {40.0};
  EXPECT_TRUE(fixed.has_am_faults());
  EXPECT_FALSE(fixed.empty());

  FaultPlan mttf;
  mttf.am_crash_mttf_s = 300.0;
  EXPECT_TRUE(mttf.has_am_faults());
  EXPECT_FALSE(mttf.empty());

  // Recovery tuning knobs alone arm nothing: the plan stays empty and the
  // run stays on the fault-free fast path.
  FaultPlan tuned;
  tuned.am_max_attempts = 5;
  tuned.am_restart_delay_s = 30.0;
  tuned.am_snapshot_interval_s = 10.0;
  EXPECT_FALSE(tuned.has_am_faults());
  EXPECT_TRUE(tuned.empty());
}

TEST(FaultValidation, AmFaultsWithoutJournalRejectedAtStart) {
  // Driving an AM-killable plan through a bare JobDriver (no journal, no
  // restart loop) is a configuration error surfaced at start().
  auto cluster = cluster::presets::homogeneous6();
  Simulator sim;
  const auto layout = workloads::make_layout(
      workloads::benchmark("WC"), InputScale::kSmall, cluster.num_nodes(),
      64.0, 3, 1);
  auto spec = workloads::to_job_spec(workloads::benchmark("WC"),
                                     InputScale::kSmall);
  const auto scheduler =
      workloads::make_scheduler(SchedulerKind::kHadoopNoSpec);
  mr::JobDriver driver(sim, cluster, layout, spec, mr::SimParams{},
                       *scheduler);
  faults::FaultPlan plan;
  plan.am_crashes = {40.0};
  driver.install_faults(plan);
  EXPECT_THROW(driver.start(), ConfigError);
}

TEST(Faults, MarkAliveRestoresWithdrawnSlots) {
  auto cluster = cluster::presets::homogeneous6();
  yarn::ResourceManager rm(cluster);
  const auto before = rm.total_slots();
  rm.mark_dead(2);
  EXPECT_EQ(rm.total_slots(), before - cluster.machine(2).slots());
  rm.mark_alive(2);
  EXPECT_FALSE(rm.is_dead(2));
  EXPECT_EQ(rm.total_slots(), before);
  EXPECT_EQ(rm.free_slots(2), cluster.machine(2).slots());
  rm.mark_alive(2);  // idempotent
  EXPECT_EQ(rm.total_slots(), before);
}

}  // namespace
}  // namespace flexmr
