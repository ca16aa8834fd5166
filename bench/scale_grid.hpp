// The bench_scale grid: the heterogeneous fleet and the synthetic job
// sized per node. Shared with the tests that pin the schedulers'
// deterministic work on the same grid.
#pragma once

#include <algorithm>
#include <cstdint>

#include "cluster/cluster.hpp"
#include "cluster/interference.hpp"
#include "common/units.hpp"
#include "workloads/puma.hpp"

namespace flexmr::bench {

// Heterogeneity mix modeled on the paper's physical testbed: a slow
// desktop-class majority, a fast-server minority, and bursty interference
// on ~20% of the fleet (§II-B's "hotspots may change during the job").
inline cluster::Cluster make_scale_cluster(std::uint32_t nodes) {
  cluster::MachineSpec fast{.model = "fast server", .base_ips = 14.0,
                            .slots = 4, .nic_bandwidth = 1192.0,
                            .memory_gb = 128.0};
  cluster::MachineSpec mid{.model = "mid server", .base_ips = 11.0,
                           .slots = 4, .nic_bandwidth = 1192.0,
                           .memory_gb = 24.0};
  cluster::MachineSpec slow{.model = "slow desktop", .base_ips = 4.0,
                            .slots = 4, .nic_bandwidth = 1192.0,
                            .memory_gb = 8.0};

  cluster::OnOffInterference::Params bursty;
  bursty.mean_idle_s = 120.0;
  bursty.mean_busy_s = 90.0;
  bursty.busy_lo = 0.35;
  bursty.busy_hi = 0.8;

  const std::uint32_t n_fast = std::max(1u, nodes / 8);        // ~12%
  const std::uint32_t n_bursty = std::max(1u, nodes / 5);      // ~20%
  const std::uint32_t n_slow = std::max(1u, (nodes * 3) / 10); // ~30%
  const std::uint32_t n_mid = nodes - n_fast - n_bursty - n_slow;

  return cluster::ClusterBuilder()
      .add(fast, n_fast)
      .add(mid, n_mid)
      .add(slow, n_slow)
      .add(mid, n_bursty, cluster::on_off_interference(bursty))
      .build();
}

// A synthetic wordcount-like job sized so Hadoop-64m launches
// `tasks_per_node * nodes` map tasks.
inline workloads::Benchmark make_scale_benchmark(
    std::uint32_t nodes, std::uint32_t tasks_per_node) {
  workloads::Benchmark bench;
  bench.code = "SCALE";
  bench.name = "synthetic scaling workload";
  bench.input_data = "synthetic";
  bench.small_input =
      static_cast<MiB>(nodes) * tasks_per_node * kDefaultBlockMiB;
  bench.large_input = bench.small_input;
  bench.map_cost = 1.0;
  bench.shuffle_ratio = 0.1;
  bench.reduce_cost = 0.5;
  bench.record_skew = 0.4;
  return bench;
}

}  // namespace flexmr::bench
