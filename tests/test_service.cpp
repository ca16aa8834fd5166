// Service layer: open arrival stream, admission queue, per-tenant SLO
// metrics, and the end-to-end determinism contract (identical config →
// byte-identical ServiceResult JSON, guarded by a pinned golden hash).
//
// To regenerate the golden after an *intentional* output change, run with
// FLEXMR_REGEN_GOLDEN=1: the test prints the current hash and fails, and
// the constant below must be updated by hand.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "cluster/presets.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "obs/session.hpp"
#include "service/config.hpp"
#include "service/service.hpp"

namespace flexmr::service {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : s) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Three tenants with distinct weights, rates, benchmark mixes and per-job
/// schedulers (a FlexMap tenant beside a stock-Hadoop one).
ServiceConfig three_tenants(std::uint64_t seed, std::size_t jobs) {
  ServiceConfig config;
  config.tenants = {
      {"analytics", 2.0, 60.0, {"WC", "II"}, workloads::InputScale::kSmall,
       workloads::SchedulerKind::kFlexMap},
      {"reporting", 1.0, 40.0, {"GR", "HR"}, workloads::InputScale::kSmall,
       workloads::SchedulerKind::kFlexMap},
      {"batch", 1.0, 20.0, {"TS"}, workloads::InputScale::kSmall,
       workloads::SchedulerKind::kHadoop},
  };
  config.total_jobs = jobs;
  config.max_concurrent_jobs = 4;
  config.policy = mr::SharePolicy::kWeightedFair;
  config.preemption.enabled = true;
  config.params.seed = seed;
  return config;
}

ServiceResult run_service(const ServiceConfig& config,
                          obs::TraceSession* trace = nullptr) {
  auto cluster = cluster::presets::multitenant40(0.0);
  Simulator sim;
  ClusterService svc(sim, cluster, config);
  svc.set_trace(trace);
  return svc.run();
}

TEST(Service, RejectsInvalidConfig) {
  auto cluster = cluster::presets::homogeneous6();
  {
    Simulator sim;
    ServiceConfig config;  // no tenants
    EXPECT_THROW(ClusterService(sim, cluster, config), ConfigError);
  }
  {
    Simulator sim;
    auto config = three_tenants(1, 4);
    config.tenants[1].weight = 0.0;
    EXPECT_THROW(ClusterService(sim, cluster, config), ConfigError);
  }
  {
    Simulator sim;
    auto config = three_tenants(1, 4);
    config.max_concurrent_jobs = 0;
    EXPECT_THROW(ClusterService(sim, cluster, config), ConfigError);
  }
}

TEST(Service, PerTenantSlosAndRecordsAreConsistent) {
  const auto result = run_service(three_tenants(7, 24));
  ASSERT_EQ(result.tenants.size(), 3u);
  ASSERT_EQ(result.jobs.size(), 24u);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_GT(result.fairness_index, 0.0);
  EXPECT_LE(result.fairness_index, 1.0 + 1e-12);

  std::size_t completed = 0;
  for (const auto& tenant : result.tenants) {
    completed += tenant.jobs_completed;
    EXPECT_EQ(tenant.jct.count(), tenant.jobs_completed);
    EXPECT_EQ(tenant.queue_delay.count(),
              tenant.jobs_completed + tenant.jobs_aborted);
    EXPECT_FALSE(tenant.slot_share.empty());
  }
  EXPECT_EQ(completed, 24u);

  for (const auto& job : result.jobs) {
    EXPECT_FALSE(job.aborted);
    EXPECT_GE(job.admitted, job.arrival);
    EXPECT_GT(job.finish, job.admitted);
    EXPECT_LT(job.tenant, result.tenants.size());
  }
}

TEST(Service, AdmissionCapIsNeverExceeded) {
  const auto config = three_tenants(3, 24);
  const auto result = run_service(config);
  // Reconstruct concurrency from the records: at every instant the number
  // of jobs with admitted <= t < finish must respect the cap. Departures
  // sort before admissions at the same timestamp (a freed cap slot is
  // reused immediately).
  std::vector<std::pair<double, int>> events;
  for (const auto& job : result.jobs) {
    events.emplace_back(job.admitted, +1);
    events.emplace_back(job.finish, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  int running = 0;
  for (const auto& [time, delta] : events) {
    running += delta;
    EXPECT_LE(running, static_cast<int>(config.max_concurrent_jobs))
        << "at t=" << time;
  }
  EXPECT_EQ(running, 0);
}

TEST(Service, DeterministicAcrossRuns) {
  // Seed 1068 historically tickled a stock-Hadoop orphaned-BU livelock
  // under preemption; keep it as the regression seed here.
  const auto config = three_tenants(1068, 20);
  const std::string first = run_service(config).json();
  // Tracing must not change the run. Jobs are admitted after sampling
  // has begun, so every driver instrument has to be registered up front.
  obs::TraceSession trace;
  const std::string second = run_service(config, &trace).json();
  EXPECT_EQ(first, second);
}

/// Expects `fn` to throw a ConfigError whose message names `key`.
template <typename Fn>
void expect_config_error(Fn fn, const std::string& key) {
  try {
    fn();
    ADD_FAILURE() << "no ConfigError for " << key;
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + key + "'"), std::string::npos)
        << e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a ConfigError: " << e.what();
  }
}

TEST(ServiceConfig, MalformedInputNamesTheKey) {
  const Config no_groups = Config::parse("[job]\nbenchmark = WC\n");
  expect_config_error([&] { build_cluster(no_groups); }, "group1.count");
  const Config bad_node = Config::parse("[failures]\nnode1 = x @ 5\n");
  expect_config_error([&] { parse_service_config(bad_node); },
                      "failures.node1");
  expect_config_error([&] { parse_job_config(bad_node); }, "failures.node1");
  const Config bad_time = Config::parse("[am]\ncrash1 = 0 @ soon\n");
  expect_config_error([&] { parse_service_config(bad_time); }, "am.crash1");

  const Config good = Config::parse(
      "[failures]\nnode1 = 3 @ 500\nnode2 = 4@1.5\n[am]\ncrash1 = 0 @ 20\n");
  const ServiceConfig service = parse_service_config(good);
  ASSERT_EQ(service.node_failures.size(), 2u);
  EXPECT_EQ(service.node_failures[1].first, 4u);
  EXPECT_DOUBLE_EQ(service.node_failures[1].second, 1.5);
  ASSERT_EQ(service.am_crashes.size(), 1u);
  const JobConfig job = parse_job_config(good);
  ASSERT_EQ(job.run.faults.crashes.size(), 2u);
  EXPECT_EQ(job.run.faults.crashes[0].node, 3u);
  EXPECT_DOUBLE_EQ(job.run.faults.crashes[0].at, 500.0);
  EXPECT_FALSE(job.run.faults.crashes[0].silent);
}

TEST(Service, GoldenOpenArrivalHash) {
  // Tentpole acceptance: a seeded open-arrival run of 100 jobs across the
  // three tenants completes, and its result JSON hashes to a pinned value.
  constexpr std::uint64_t kGolden = 0xda26d26fd86e7391ull;
  const auto config = three_tenants(42, 100);
  const ServiceResult result = run_service(config);
  EXPECT_EQ(result.jobs.size(), 100u);

  const std::uint64_t hash = fnv1a(result.json());
  if (std::getenv("FLEXMR_REGEN_GOLDEN") != nullptr) {
    std::printf("service golden: 0x%016llxull\n",
                static_cast<unsigned long long>(hash));
    FAIL() << "FLEXMR_REGEN_GOLDEN set; update kGolden with the value above";
  }
  EXPECT_EQ(hash, kGolden) << "service result JSON drifted; if intentional, "
                              "regenerate with FLEXMR_REGEN_GOLDEN=1";
}

}  // namespace
}  // namespace flexmr::service
