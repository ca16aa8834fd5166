// Multi-tenant service bench: the same open arrival stream (three tenants,
// Poisson arrivals, mixed PUMA benchmarks) replayed under each cluster
// share policy — FIFO, fair, weighted-fair, weighted-fair + preemption —
// on the paper's multi-tenant 40-node testbed. Not a paper figure; the
// paper runs one job at a time, but §IV-F's multi-tenant cluster is where
// per-tenant SLOs start to matter: FIFO lets one heavy tenant queue
// everyone else out, fair sharing flattens the p99 queueing delay, and
// preemption bounds how long an over-share tenant can sit on containers
// FlexMap's elastic tasks can cheaply give back.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "cluster/presets.hpp"
#include "service/service.hpp"
#include "simcore/simulator.hpp"

namespace flexmr::bench {
namespace {

struct PolicyVariant {
  std::string label;
  mr::SharePolicy policy;
  bool preemption;
};

service::ServiceConfig scenario(const PolicyVariant& variant,
                                std::uint64_t seed) {
  service::ServiceConfig config;
  config.tenants = {
      {"analytics", 2.0, 60.0, {"WC", "II"}, workloads::InputScale::kSmall,
       workloads::SchedulerKind::kFlexMap},
      {"reporting", 1.0, 40.0, {"GR", "HR"}, workloads::InputScale::kSmall,
       workloads::SchedulerKind::kFlexMap},
      {"batch", 1.0, 20.0, {"TS"}, workloads::InputScale::kSmall,
       workloads::SchedulerKind::kHadoop},
  };
  config.total_jobs = 30;
  config.max_concurrent_jobs = 4;
  config.policy = variant.policy;
  config.preemption.enabled = variant.preemption;
  config.params.seed = seed;
  return config;
}

struct RunStats {
  double makespan = 0;
  double fairness = 0;
  double preemptions = 0;
  /// Per tenant: p50/p99 JCT, p50/p99 queueing delay, mean slot share.
  std::vector<std::array<double, 5>> tenant;
};

RunStats run_one(const PolicyVariant& variant, std::uint64_t seed) {
  auto cluster = cluster::presets::multitenant40(0.0);
  Simulator sim;
  service::ClusterService svc(sim, cluster, scenario(variant, seed));
  const service::ServiceResult result = svc.run();

  RunStats stats;
  stats.makespan = result.makespan;
  stats.fairness = result.fairness_index;
  stats.preemptions = static_cast<double>(result.preemption_kills);
  for (const service::TenantStats& tenant : result.tenants) {
    stats.tenant.push_back(
        {tenant.jct.empty() ? 0.0 : tenant.jct.quantile(0.5),
         tenant.jct.empty() ? 0.0 : tenant.jct.quantile(0.99),
         tenant.queue_delay.empty() ? 0.0 : tenant.queue_delay.quantile(0.5),
         tenant.queue_delay.empty() ? 0.0
                                    : tenant.queue_delay.quantile(0.99),
         tenant.slot_share.empty() ? 0.0 : tenant.slot_share.mean()});
  }
  return stats;
}

}  // namespace
}  // namespace flexmr::bench

int main() {
  using namespace flexmr;
  using namespace flexmr::bench;

  print_header("service",
               "fair sharing flattens per-tenant p99 queueing delay vs "
               "FIFO; preemption enforces weighted shares");

  const std::vector<PolicyVariant> variants = {
      {"fifo", mr::SharePolicy::kFifo, false},
      {"fair", mr::SharePolicy::kFair, false},
      {"weighted-fair", mr::SharePolicy::kWeightedFair, false},
      {"weighted-fair+preempt", mr::SharePolicy::kWeightedFair, true},
  };
  const auto seeds = default_seeds(5);
  const std::vector<std::string> tenant_names = {"analytics", "reporting",
                                                 "batch"};

  struct WorkItem {
    std::size_t variant;
    std::uint64_t seed;
  };
  std::vector<WorkItem> items;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    for (const auto seed : seeds) items.push_back({v, seed});
  }

  // Buffer per-item results and fold in index order afterwards, so the
  // emitted stats are identical however the pool interleaves (the same
  // discipline as sweep() in bench_common.hpp).
  std::vector<RunStats> measured(items.size());
  sweep_pool().parallel_for_each(
      items.begin(), items.end(), [&](const WorkItem& w) {
        const auto i = static_cast<std::size_t>(&w - items.data());
        measured[i] = run_one(variants[w.variant], w.seed);
      });

  BenchArtifact artifact("service",
                         "Multi-tenant service: share policy comparison");
  artifact.record_seeds(seeds);

  for (std::size_t v = 0; v < variants.size(); ++v) {
    OnlineStats makespan, fairness, preemptions;
    std::vector<std::array<OnlineStats, 5>> tenant(tenant_names.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (items[i].variant != v) continue;
      const RunStats& stats = measured[i];
      makespan.add(stats.makespan);
      fairness.add(stats.fairness);
      preemptions.add(stats.preemptions);
      for (std::size_t t = 0; t < tenant.size(); ++t) {
        for (std::size_t m = 0; m < 5; ++m) {
          tenant[t][m].add(stats.tenant[t][m]);
        }
      }
    }
    const std::string& label = variants[v].label;
    artifact.add_metric(label, "makespan_s", makespan);
    artifact.add_metric(label, "fairness_index", fairness);
    artifact.add_metric(label, "preemption_kills", preemptions);
    std::printf("%-22s makespan %7.0fs  fairness %.3f  preemptions %.1f\n",
                label.c_str(), makespan.mean(), fairness.mean(),
                preemptions.mean());
    for (std::size_t t = 0; t < tenant.size(); ++t) {
      const std::string series = label + "/" + tenant_names[t];
      artifact.add_metric(series, "jct_p50_s", tenant[t][0]);
      artifact.add_metric(series, "jct_p99_s", tenant[t][1]);
      artifact.add_metric(series, "queue_delay_p50_s", tenant[t][2]);
      artifact.add_metric(series, "queue_delay_p99_s", tenant[t][3]);
      artifact.add_metric(series, "slot_share_mean", tenant[t][4]);
      std::printf("  %-12s jct p50 %6.0fs p99 %6.0fs | queue p50 %6.0fs "
                  "p99 %6.0fs | share %.2f\n",
                  tenant_names[t].c_str(), tenant[t][0].mean(),
                  tenant[t][1].mean(), tenant[t][2].mean(),
                  tenant[t][3].mean(), tenant[t][4].mean());
    }
  }

  // One full result document for the canonical seed, for diffing runs.
  {
    auto cluster = cluster::presets::multitenant40(0.0);
    Simulator sim;
    service::ClusterService svc(sim, cluster,
                                scenario(variants.back(), seeds.front()));
    artifact.attach("service_result", svc.run().json());
  }

  artifact.write();
  return 0;
}
