// Regression tests for the paper's qualitative claims: if a refactor
// breaks the *reproduction* (not just the code), these fail. Each test
// pins one claim from the evaluation narrative, with tolerances loose
// enough to survive seed changes but tight enough to catch inversions.
#include <gtest/gtest.h>

#include "cluster/presets.hpp"
#include "common/stats.hpp"
#include "flexmap/flexmap_scheduler.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

using workloads::InputScale;
using workloads::RunConfig;
using workloads::SchedulerKind;

double mean_jct(const std::function<cluster::Cluster()>& make,
                const char* code, InputScale scale, SchedulerKind kind,
                MiB block = kDefaultBlockMiB, int seeds = 3) {
  OnlineStats jct;
  for (int s = 0; s < seeds; ++s) {
    auto cluster = make();
    RunConfig config;
    config.block_size = block;
    config.params.seed = 100 + static_cast<std::uint64_t>(s) * 13;
    jct.add(workloads::run_job(cluster, workloads::benchmark(code), scale,
                               kind, config)
                .jct());
  }
  return jct.mean();
}

double mean_efficiency(const std::function<cluster::Cluster()>& make,
                       const char* code, SchedulerKind kind,
                       int seeds = 3) {
  OnlineStats eff;
  for (int s = 0; s < seeds; ++s) {
    auto cluster = make();
    RunConfig config;
    config.params.seed = 100 + static_cast<std::uint64_t>(s) * 13;
    eff.add(workloads::run_job(cluster, workloads::benchmark(code),
                               InputScale::kSmall, kind, config)
                .efficiency());
  }
  return eff.mean();
}

auto physical = []() { return cluster::presets::physical12(); };
auto virtual_cluster = []() { return cluster::presets::virtual20(); };
auto homogeneous = []() { return cluster::presets::homogeneous6(); };

// §IV-B / Fig. 5: FlexMap reduces JCT vs the best stock setting on
// map-heavy benchmarks in both heterogeneous environments.
TEST(PaperClaims, FlexMapBeatsStockOnMapHeavyPhysical) {
  for (const char* code : {"GR", "HM", "KM"}) {
    const double stock =
        mean_jct(physical, code, InputScale::kSmall, SchedulerKind::kHadoop);
    const double flexmap = mean_jct(physical, code, InputScale::kSmall,
                                    SchedulerKind::kFlexMap);
    EXPECT_LT(flexmap, stock) << code;
  }
}

TEST(PaperClaims, FlexMapBeatsStockOnMapHeavyVirtual) {
  for (const char* code : {"WC", "TV", "KM"}) {
    const double stock = mean_jct(virtual_cluster, code, InputScale::kSmall,
                                  SchedulerKind::kHadoop);
    const double flexmap = mean_jct(virtual_cluster, code,
                                    InputScale::kSmall,
                                    SchedulerKind::kFlexMap);
    EXPECT_LT(flexmap, stock) << code;
  }
}

// Fig. 6: FlexMap's map-phase efficiency beats stock Hadoop's under
// heterogeneity.
TEST(PaperClaims, FlexMapImprovesEfficiency) {
  for (const char* code : {"WC", "GR", "HR"}) {
    const double stock =
        mean_efficiency(physical, code, SchedulerKind::kHadoop);
    const double flexmap =
        mean_efficiency(physical, code, SchedulerKind::kFlexMap);
    EXPECT_GT(flexmap, stock + 0.05) << code;
  }
}

// §IV-D: on a homogeneous cluster FlexMap is within a few percent of
// stock (the vertical-scaling ramp is cheap).
TEST(PaperClaims, FlexMapOverheadSmallOnHomogeneous) {
  const double stock = mean_jct(homogeneous, "WC", InputScale::kSmall,
                                SchedulerKind::kHadoopNoSpec);
  const double flexmap = mean_jct(homogeneous, "WC", InputScale::kSmall,
                                  SchedulerKind::kFlexMap);
  EXPECT_LT(flexmap, stock * 1.08);
}

// §II-C / Fig. 3(c): 8 MB tasks have productivity ≈ 0.28.
TEST(PaperClaims, SmallTaskProductivityMatchesPaper) {
  auto cluster = cluster::presets::homogeneous6();
  auto bench = workloads::benchmark("WC");
  bench.small_input = 2048.0;
  RunConfig config;
  config.block_size = 8.0;
  config.params.exec_noise_sigma = 0.0;
  const auto result = workloads::run_job(
      cluster, bench, InputScale::kSmall, SchedulerKind::kHadoopNoSpec,
      config);
  EXPECT_NEAR(result.mean_map_productivity(), 0.28, 0.04);
}

// Fig. 3(d): on a heterogeneous cluster the optimal fixed task size is
// interior — both 8 MB and 256 MB are worse than 64 MB.
TEST(PaperClaims, FixedTaskSizeIsUShapedUnderHeterogeneity) {
  auto hetero = []() { return cluster::presets::heterogeneous6(); };
  const double tiny =
      mean_jct(hetero, "WC", InputScale::kSmall,
               SchedulerKind::kHadoopNoSpec, 8.0);
  const double mid =
      mean_jct(hetero, "WC", InputScale::kSmall,
               SchedulerKind::kHadoopNoSpec, 64.0);
  const double huge =
      mean_jct(hetero, "WC", InputScale::kSmall,
               SchedulerKind::kHadoopNoSpec, 256.0);
  EXPECT_LT(mid, tiny);
  EXPECT_LT(mid, huge);
}

// Fig. 3(a): small fixed tasks have lower normalized-runtime variance.
TEST(PaperClaims, SmallTasksAreMoreUniform) {
  auto run_cv = [](MiB block) {
    auto cluster = cluster::presets::virtual20();
    auto bench = workloads::benchmark("WC");
    bench.small_input = 4096.0;
    RunConfig config;
    config.block_size = block;
    const auto result = workloads::run_job(
        cluster, bench, InputScale::kSmall, SchedulerKind::kHadoopNoSpec,
        config);
    return result.map_runtimes().cv();
  };
  EXPECT_LT(run_cv(8.0), run_cv(64.0));
}

// §IV-F / Fig. 8: speculation's benefit over no-speculation shrinks as the
// slow-node fraction grows.
TEST(PaperClaims, SpeculationConvergesToNoSpecWithManySlowNodes) {
  auto jct_gap = [](double fraction) {
    auto make = [fraction]() {
      return cluster::presets::multitenant40(fraction);
    };
    auto bench = workloads::benchmark("WC");
    bench.large_input = gib_to_mib(16);
    OnlineStats spec;
    OnlineStats nospec;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      RunConfig config;
      config.params.seed = seed;
      auto c1 = make();
      spec.add(workloads::run_job(c1, bench, InputScale::kLarge,
                                  SchedulerKind::kHadoop, config)
                   .jct());
      auto c2 = make();
      nospec.add(workloads::run_job(c2, bench, InputScale::kLarge,
                                    SchedulerKind::kHadoopNoSpec, config)
                     .jct());
    }
    return nospec.mean() / spec.mean();  // >1 means speculation helps
  };
  const double at_5 = jct_gap(0.05);
  const double at_40 = jct_gap(0.40);
  EXPECT_LT(at_40, at_5 + 0.05);  // benefit does not grow; it shrinks
}

// Fig. 7: FlexMap's final task size on a fast node exceeds the slow
// node's by a large factor in the virtual cluster.
TEST(PaperClaims, ElasticSizesDivergeOnVirtualCluster) {
  auto cluster = cluster::presets::virtual20();
  flexmap::FlexMapScheduler scheduler;
  auto bench = workloads::benchmark("HR");
  RunConfig config;
  config.params.seed = 3;
  workloads::run_job(cluster, bench, InputScale::kSmall, scheduler, config);
  // Static-slow nodes are 0..4 in the preset; compare peak sizes.
  std::uint32_t slow_peak = 0;
  std::uint32_t fast_peak = 0;
  for (const auto& point : scheduler.sizing_trace()) {
    auto& peak = point.node < 5 ? slow_peak : fast_peak;
    peak = std::max(peak, point.size_bus);
  }
  EXPECT_GE(fast_peak, 3 * slow_peak);
}

}  // namespace
}  // namespace flexmr
