// Golden-output determinism regression for the hot-path optimizations.
//
// The simulator's core property is bit-reproducibility: the event-queue
// slot table, heap compaction, SpeedMonitor extrema caching and the
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
