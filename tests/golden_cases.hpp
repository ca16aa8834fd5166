// The pinned golden cases shared by the determinism, profiler and erasure
// suites: each must reproduce the same FNV-1a hashes of the JobResult
// JSON, for every scheduler, with and without the canonical fault plan.
//
// To regenerate after an *intentional* output change, run with
// FLEXMR_REGEN_GOLDEN=1 (see test_golden_determinism.cpp for the
// procedure) and update the constants here by hand.
#pragma once

#include <cstdint>
#include <string>

#include "cluster/presets.hpp"
#include "faults/fault_plan.hpp"
#include "mr/result_json.hpp"
#include "workloads/experiment.hpp"

namespace flexmr::golden {

inline std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct GoldenCase {
  workloads::SchedulerKind kind;
  MiB block_size;
  const char* label;
  std::uint64_t expected;
};

// All four comparison systems of the paper (Fig. 5/6 configuration).
inline constexpr GoldenCase kCases[] = {
    {workloads::SchedulerKind::kHadoop, kLargeBlockMiB, "Hadoop-128m",
     0x0a1990820730e5d7ull},
    {workloads::SchedulerKind::kHadoop, kDefaultBlockMiB, "Hadoop-64m",
     0x9f9a7d1d34b8a063ull},
    {workloads::SchedulerKind::kSkewTune, kDefaultBlockMiB, "SkewTune-64m",
     0x8975dc6c0ed84393ull},
    {workloads::SchedulerKind::kFlexMap, kDefaultBlockMiB, "FlexMap",
     0x9884f7fe650b6a4aull},
};

// Same four systems under a canonical non-empty fault plan: one silent
// crash with rejoin plus transient attempt and shuffle-fetch failures.
// Pins the whole fault path — injector RNG stream, replica bookkeeping,
// re-replication pipeline, fetch retries — to a byte-stable timeline.
inline constexpr GoldenCase kFaultCases[] = {
    {workloads::SchedulerKind::kHadoop, kLargeBlockMiB,
     "Faults-Hadoop-128m", 0x952a3362b487103full},
    {workloads::SchedulerKind::kHadoop, kDefaultBlockMiB,
     "Faults-Hadoop-64m", 0x7cf851d06f8ce2afull},
    // Regenerated when stock-derived schedulers learned to re-pend
    // partially-consumed blocks (relaunching only the free remainder):
    // SkewTune's post-crash timeline changed, with exactly-once intact.
    {workloads::SchedulerKind::kSkewTune, kDefaultBlockMiB,
     "Faults-SkewTune-64m", 0xc89a5686d50bcfbfull},
    {workloads::SchedulerKind::kFlexMap, kDefaultBlockMiB,
     "Faults-FlexMap", 0x4a019693852e41faull},
};

/// The mid-map AM-crash golden pinned by test_recovery.cpp (the ninth
/// hash): crash at t=40 under kHadoop on the same 20-node cluster.
inline constexpr std::uint64_t kMidMapAmCrashGolden = 0xc4fd10a581aa81e8ull;

inline faults::FaultPlan golden_fault_plan() {
  faults::FaultPlan plan;
  plan.crashes = {faults::NodeCrash{3, 25.0, 90.0, true}};
  plan.attempt_failure_prob = 0.05;
  plan.fetch_failure_prob = 0.05;
  return plan;
}

/// One golden run on the paper's 20-node virtual cluster, returning the
/// JobResult JSON.
inline std::string run_case(const GoldenCase& c, const faults::FaultPlan& plan,
                            obs::TraceSession* trace = nullptr) {
  auto cluster = cluster::presets::virtual20();
  workloads::RunConfig config;
  config.block_size = c.block_size;
  config.params.seed = 1234;
  config.faults = plan;
  config.trace = trace;
  const auto result =
      workloads::run_job(cluster, workloads::benchmark("WC"),
                         workloads::InputScale::kSmall, c.kind, config);
  return mr::job_result_json(result, cluster);
}

}  // namespace flexmr::golden
