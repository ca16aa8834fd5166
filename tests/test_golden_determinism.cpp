// Golden-output determinism regression for the hot-path optimizations.
//
// The simulator's core property is bit-reproducibility: the event-queue
// slot table, heap compaction, the cached slowest speed and the
// heartbeat/offer-loop rewrites must not change a single byte of the
// JobResult JSON for a fixed seed. The golden hashes (tests/
// golden_cases.hpp, shared with other suites) were captured
// from the pre-optimization implementation (lazy-cancel unordered_map
// queue, scan-based SpeedMonitor, O(all-tasks) heartbeat scans) on the
// paper's 20-node virtual cluster — bursty interference there keeps
// completion re-estimation (schedule/cancel churn) and speed re-rating in
// the exercised path.
//
// To regenerate after an *intentional* output change, run with
// FLEXMR_REGEN_GOLDEN=1 in the environment: the test prints the current
// hashes and fails, and the constants in golden_cases.hpp must be updated
// by hand. Goldens assume IEEE-754 doubles and one libm (FP results feed
// the JSON); they are tied to the CI/dev toolchain, not to a particular
// machine.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "mr/multi_job.hpp"
#include "obs/session.hpp"
#include "tests/golden_cases.hpp"

namespace flexmr {
namespace {

using golden::fnv1a;
using golden::GoldenCase;
using golden::golden_fault_plan;
using golden::kCases;
using golden::kFaultCases;
using golden::run_case;

void check_goldens(const GoldenCase* cases, std::size_t n,
                   const faults::FaultPlan& plan) {
  const bool regen = std::getenv("FLEXMR_REGEN_GOLDEN") != nullptr;
  bool all_match = true;
  for (std::size_t i = 0; i < n; ++i) {
    const GoldenCase& c = cases[i];
    const std::uint64_t hash = fnv1a(run_case(c, plan));
    if (regen) {
      std::printf("    {workloads::SchedulerKind::k..., ..., \"%s\",\n"
                  "     0x%016llxull},\n",
                  c.label, static_cast<unsigned long long>(hash));
      all_match = false;
      continue;
    }
    EXPECT_EQ(hash, c.expected) << c.label;
    all_match = all_match && hash == c.expected;
  }
  if (regen) {
    FAIL() << "FLEXMR_REGEN_GOLDEN set: hashes printed above; update "
              "the golden cases and re-run without the env var";
  }
  EXPECT_TRUE(all_match);
}

TEST(GoldenDeterminism, JobResultJsonMatchesPreOptimizationGolden) {
  check_goldens(kCases, std::size(kCases), faults::FaultPlan{});
}

TEST(GoldenDeterminism, FaultTimelineMatchesGolden) {
  check_goldens(kFaultCases, std::size(kFaultCases), golden_fault_plan());
}

// The tracer observes, never perturbs: attaching a live TraceSession must
// leave every pinned hash untouched (no RNG draws, no event-queue
// changes, same sim_events_fired/cancelled/queue_peak). Covers both the
// clean and the fault-plan cases.
TEST(GoldenDeterminism, TracingOnLeavesGoldenHashesUnchanged) {
  for (const auto& c : kCases) {
    obs::TraceSession trace;
    EXPECT_EQ(fnv1a(run_case(c, faults::FaultPlan{}, &trace)), c.expected)
        << c.label << " with tracing enabled";
    EXPECT_FALSE(trace.tracer().empty()) << c.label;
    EXPECT_GT(trace.metrics().num_rows(), 0u) << c.label;
  }
  const auto plan = golden_fault_plan();
  for (const auto& c : kFaultCases) {
    obs::TraceSession trace;
    EXPECT_EQ(fnv1a(run_case(c, plan, &trace)), c.expected)
        << c.label << " with tracing enabled";
    EXPECT_GT(trace.metrics().counter_value("fault_events"), 0u) << c.label;
  }
}

// The trace itself is an artifact: two identical traced runs must produce
// byte-identical flexmr.trace.v1 documents.
TEST(GoldenDeterminism, TraceDocumentIsByteStable) {
  const auto plan = golden_fault_plan();
  obs::TraceSession first;
  obs::TraceSession second;
  run_case(kFaultCases[3], plan, &first);
  run_case(kFaultCases[3], plan, &second);
  EXPECT_EQ(first.trace_json(), second.trace_json());
  EXPECT_EQ(first.metrics_csv(), second.metrics_csv());
}

// Fault paths the canonical plan leaves out: container launch failures,
// node crashes late in the job, and an AM crash during FlexMap's reduce
// phase that tears down its running reducers. The hashes were taken before
// JobDriver was split by mechanism; a run that aborts hashes the result
// its JobAbortedError carries.
faults::FaultPlan uncovered_plan(int which) {
  faults::FaultPlan plan;
  if (which == 0) {
    plan.container_launch_failure_prob = 0.05;
    plan.max_attempts = 8;
  } else if (which == 1) {
    plan.container_launch_failure_prob = 0.03;
    plan.attempt_failure_prob = 0.03;
    plan.crashes = {faults::NodeCrash{4, 62.0, 95.0, true},
                    faults::NodeCrash{9, 70.0, std::nullopt, false}};
  } else {
    plan.container_launch_failure_prob = 0.03;
    plan.am_crashes = {66.0};
  }
  return plan;
}

/// The run's JobResult, or the one its JobAbortedError carries.
mr::JobResult run_or_abort(cluster::Cluster& cluster, const GoldenCase& c,
                           const faults::FaultPlan& plan) {
  workloads::RunConfig config;
  config.block_size = c.block_size;
  config.params.seed = 1234;
  config.faults = plan;
  try {
    return workloads::run_job(cluster, workloads::benchmark("WC"),
                              workloads::InputScale::kSmall, c.kind, config);
  } catch (const mr::JobAbortedError& e) {
    return e.result();
  }
}

TEST(GoldenDeterminism, UncoveredFaultPathsMatchGolden) {
  // Rows: the three plans; columns: Hadoop-64m, SkewTune-64m, FlexMap.
  constexpr std::uint64_t kExpected[3][3] = {
      {0xae3044753ebdf384ull, 0x9e39c3c9b349c955ull, 0x8cf389ba34ce677full},
      {0x46caabe6506bbf14ull, 0x6f9fa3deb9a0937cull, 0x8834888d283041d7ull},
      {0x7b7e296107ce841bull, 0x5202c3004752296cull, 0xeffef3db0bb4f86bull},
  };
  const bool regen = std::getenv("FLEXMR_REGEN_GOLDEN") != nullptr;
  for (int p = 0; p < 3; ++p) {
    const auto plan = uncovered_plan(p);
    for (int s = 0; s < 3; ++s) {
      const GoldenCase& c = kCases[s + 1];
      auto cluster = cluster::presets::virtual20();
      const mr::JobResult result = run_or_abort(cluster, c, plan);
      const std::uint64_t hash = fnv1a(mr::job_result_json(result, cluster));
      if (regen) {
        std::printf("    plan %d %s: 0x%016llxull (aborted %d)\n", p, c.label,
                    static_cast<unsigned long long>(hash),
                    static_cast<int>(result.aborted));
        continue;
      }
      EXPECT_EQ(hash, kExpected[p][s]) << "plan " << p << ' ' << c.label;
    }
  }
  if (regen) {
    FAIL() << "FLEXMR_REGEN_GOLDEN set: update kExpected and re-run";
  }
}

// Replica-view paths: node loss with and without rejoin, disk loss on live
// nodes, repair on and off, and AM restarts after repairs landed, after a
// rejoin and across a node's downtime. No disk is lost while its node is
// down. The hashes were taken while the block index still kept its own
// copy of replica liveness.
faults::FaultPlan replica_view_plan(int which) {
  faults::FaultPlan plan;
  switch (which) {
    case 0:  // oracle crash with rejoin
      plan.crashes = {{3, 20.0, 50.0, false}};
      break;
    case 1:  // permanent oracle crash, repair off
      plan.crashes = {{3, 20.0, std::nullopt, false}};
      plan.re_replication = false;
      break;
    case 2:  // silent crash with rejoin, repair off
      plan.crashes = {{5, 18.0, 70.0, true}};
      plan.re_replication = false;
      break;
    case 3:  // disk loss on live nodes; repairs land back on them
      plan.disk_faults = {{5, 0, 12.0}, {9, 2, 30.0}, {5, 1, 45.0}};
      break;
    case 4:  // disk loss around a crash/rejoin and a permanent silent crash
      plan.crashes = {{3, 20.0, 50.0, false}, {11, 35.0, std::nullopt, true}};
      plan.disk_faults = {{7, 1, 15.0}, {3, 2, 60.0}};
      break;
    case 5:  // AM restart after repairs landed
      plan.disk_faults = {{6, 0, 8.0}, {12, 3, 14.0}};
      plan.am_crashes = {40.0};
      break;
    case 6:  // AM restart after a rejoin
      plan.crashes = {{4, 12.0, 30.0, false}};
      plan.disk_faults = {{8, 1, 20.0}};
      plan.am_crashes = {45.0};
      break;
    case 7:  // a node down across the AM restart, back in its downtime
      plan.crashes = {{2, 20.0, 47.0, false}, {10, 25.0, 100.0, true}};
      plan.disk_faults = {{13, 2, 22.0}};
      plan.am_crashes = {40.0};
      break;
    default:  // a node down across the AM restart, back after it
      plan.crashes = {{2, 20.0, 75.0, false}};
      plan.disk_faults = {{9, 0, 10.0}};
      plan.am_crashes = {40.0};
      plan.re_replication = false;
      break;
  }
  return plan;
}

TEST(GoldenDeterminism, ReplicaViewFaultPathsMatchGolden) {
  // Rows: the nine plans; columns: 3x replication, rs(6,3). Each hash
  // covers Hadoop, Hadoop-nospec, SkewTune and FlexMap, in that order.
  constexpr std::uint64_t kExpected[9][2] = {
      {0x735507dbe6f8a26bull, 0x9e379652a4c8bd3full},
      {0xbad5753a23f98349ull, 0x7335619b98c94fe9ull},
      {0x6a3aabc6016986f5ull, 0x429a0faf9a661585ull},
      {0x939fdae703fa01dfull, 0x422d719098f29a63ull},
      {0x15f61281037a9e04ull, 0xf76c02590ba3cd51ull},
      {0xe0a2208ab3eff47eull, 0x0f5752f292ba612cull},
      {0x689a267b05e1e431ull, 0x08a6914b2fe44560ull},
      {0x7c2d03a02d84a6ebull, 0xe6daf9e8b005acf2ull},
      {0xf02fd391e136e176ull, 0x5104a78abcebcb8eull},
  };
  constexpr workloads::SchedulerKind kKinds[] = {
      workloads::SchedulerKind::kHadoop,
      workloads::SchedulerKind::kHadoopNoSpec,
      workloads::SchedulerKind::kSkewTune,
      workloads::SchedulerKind::kFlexMap,
  };
  const bool regen = std::getenv("FLEXMR_REGEN_GOLDEN") != nullptr;
  for (int p = 0; p < 9; ++p) {
    for (int erasure = 0; erasure < 2; ++erasure) {
      std::string results;
      for (const auto kind : kKinds) {
        auto cluster = cluster::presets::virtual20();
        workloads::RunConfig config;
        config.params.seed = 1234;
        config.faults = replica_view_plan(p);
        if (erasure == 1) config.storage = hdfs::StoragePolicy::rs(6, 3);
        mr::JobResult result;
        try {
          result = workloads::run_job(cluster, workloads::benchmark("WC"),
                                      workloads::InputScale::kSmall, kind,
                                      config);
        } catch (const mr::JobAbortedError& e) {
          result = e.result();
        }
        results += mr::job_result_json(result, cluster);
      }
      const std::uint64_t hash = fnv1a(results);
      if (regen) {
        std::printf("    plan %d erasure %d: 0x%016llxull\n", p, erasure,
                    static_cast<unsigned long long>(hash));
        continue;
      }
      EXPECT_EQ(hash, kExpected[p][erasure])
          << "plan " << p << " erasure " << erasure;
    }
  }
  if (regen) {
    FAIL() << "FLEXMR_REGEN_GOLDEN set: update kExpected and re-run";
  }
}

// Shared-cluster node failures: two jobs see nodes 1 and 4 die and a third
// is admitted after both deaths; in the second variant job 0's AM restarts
// after both deaths were processed. Each hash covers the three results.
TEST(GoldenDeterminism, SharedClusterNodeFailuresMatchGolden) {
  constexpr std::uint64_t kExpected[2] = {0x44173029c50e6e95ull,
                                          0xa21b1d4033afe206ull};
  const bool regen = std::getenv("FLEXMR_REGEN_GOLDEN") != nullptr;
  for (int restart = 0; restart < 2; ++restart) {
    auto cluster = cluster::presets::homogeneous6();
    Simulator sim;
    auto bench = workloads::benchmark("WC");
    bench.small_input = 1024.0;
    std::vector<hdfs::FileLayout> layouts;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      layouts.push_back(workloads::make_layout(
          bench, workloads::InputScale::kSmall, cluster.num_nodes(), 64.0, 3,
          seed));
    }
    const auto spec =
        workloads::to_job_spec(bench, workloads::InputScale::kSmall);
    const auto nospec =
        workloads::make_scheduler(workloads::SchedulerKind::kHadoopNoSpec);
    const auto flexmap =
        workloads::make_scheduler(workloads::SchedulerKind::kFlexMap);
    const auto skewtune =
        workloads::make_scheduler(workloads::SchedulerKind::kSkewTune);
    mr::MultiJobCoordinator coordinator(sim, cluster, mr::SharePolicy::kFair);
    coordinator.submit(layouts[0], spec, mr::SimParams{}, *nospec, 0.0);
    coordinator.submit(layouts[1], spec, mr::SimParams{}, *flexmap, 0.0);
    coordinator.submit(layouts[2], spec, mr::SimParams{}, *skewtune, 30.0);
    if (restart == 1) {
      coordinator.set_am_recovery({2, 10.0});
      coordinator.schedule_am_crash(0, 28.0);
    }
    coordinator.schedule_node_failure(1, 19.0);
    coordinator.schedule_node_failure(4, 26.0);
    std::string results;
    for (const auto& result : coordinator.run_all()) {
      results += mr::job_result_json(result);
    }
    const std::uint64_t hash = fnv1a(results);
    if (regen) {
      std::printf("    restart %d: 0x%016llxull\n", restart,
                  static_cast<unsigned long long>(hash));
      continue;
    }
    EXPECT_EQ(hash, kExpected[restart]) << "restart " << restart;
  }
  if (regen) {
    FAIL() << "FLEXMR_REGEN_GOLDEN set: update kExpected and re-run";
  }
}

// Independent of the golden constants: the same seed must give the same
// bytes on a second in-process run (fresh cluster + scheduler instances).
TEST(GoldenDeterminism, RepeatedRunsAreByteIdentical) {
  for (const auto& c : kCases) {
    EXPECT_EQ(run_case(c, faults::FaultPlan{}), run_case(c, faults::FaultPlan{}))
        << c.label;
  }
  const auto plan = golden_fault_plan();
  for (const auto& c : kFaultCases) {
    EXPECT_EQ(run_case(c, plan), run_case(c, plan)) << c.label;
  }
}

}  // namespace
}  // namespace flexmr
