// INI front end: tools, benches and examples describe a cluster plus a
// multi-tenant scenario or a single job in a flat config file instead of
// code.
//
//   [group1]            # cluster node groups, read until the first gap
//   model = rack server
//   count = 8
//   ips = 12
//   slots = 4
//   slowdown = 1.0      # < 1 runs the group at that fraction of speed
//
//   [job]               # single job (flexmr-trace, custom_cluster)
//   benchmark = WC      # PUMA code
//   input_gib = 4
//   block_mb = 64
//
//   [run]
//   seed = 9
//   scheduler = flexmap
//
//   [service]
//   total_jobs = 100
//   max_concurrent_jobs = 4
//   policy = weighted-fair     # fifo | fair | weighted-fair
//   seed = 42
//   block_mb = 64
//   replication = 3
//
//   [preemption]
//   enabled = true
//   period_s = 30
//   over_share_factor = 1.25
//   max_kills_per_round = 2
//
//   [tenant1]                  # tenant2, tenant3, ... — at least one
//   name = analytics
//   weight = 2
//   arrivals_per_hour = 40
//   benchmarks = WC, II, TS    # PUMA codes, cycled per arrival
//   scale = small              # small | large
//   scheduler = flexmap        # hadoop | skewtune | flexmap | ...
//
//   [failures]
//   node1 = 3 @ 500            # node 3 dies at t=500s
#pragma once

#include <string>

#include "cluster/cluster.hpp"
#include "common/config.hpp"
#include "service/service.hpp"

namespace flexmr::service {

/// Builds the cluster from [groupN] sections. Throws ConfigError when no
/// group is defined.
cluster::Cluster build_cluster(const Config& config);

/// Parses [service], [preemption], [tenantN], [failures] and [am].
ServiceConfig parse_service_config(const Config& config);

/// A single job on the cluster.
struct JobConfig {
  workloads::Benchmark bench;
  workloads::SchedulerKind scheduler = workloads::SchedulerKind::kFlexMap;
  workloads::RunConfig run;
};

/// Parses [job], [run] and [failures]; each failure is an
/// oracle-detected, permanent crash.
JobConfig parse_job_config(const Config& config);

/// "hadoop" | "hadoop-nospec" | "skewtune" | "flexmap" | "flexmap-nov" |
/// "flexmap-noh" | "flexmap-norb".
workloads::SchedulerKind parse_scheduler_kind(const std::string& name);

/// "fifo" | "fair" | "weighted-fair".
mr::SharePolicy parse_share_policy(const std::string& name);

/// Built-in demo scenario: mixed 10-node cluster, three tenants with
/// unequal weights and rates, preemption on.
const char* demo_config();

}  // namespace flexmr::service
