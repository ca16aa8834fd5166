#include "service/config.hpp"

#include <cctype>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"

namespace flexmr::service {

namespace {

std::string trim(const std::string& value) {
  std::size_t lo = 0, hi = value.size();
  while (lo < hi && std::isspace(static_cast<unsigned char>(value[lo]))) {
    ++lo;
  }
  while (hi > lo && std::isspace(static_cast<unsigned char>(value[hi - 1]))) {
    --hi;
  }
  return value.substr(lo, hi - lo);
}

/// Splits "WC, II, TS" into trimmed tokens.
std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    std::string token = trim(value.substr(pos, comma - pos));
    if (!token.empty()) out.push_back(std::move(token));
    pos = comma + 1;
  }
  return out;
}

/// Reads `<prefix>1`, `<prefix>2`, ... up to the first gap, each as
/// `<id> @ <seconds>`. `form` spells that shape in the ConfigError raised
/// for a malformed entry.
std::vector<std::pair<std::uint64_t, double>> read_at_list(
    const Config& config, const std::string& prefix, const char* form) {
  std::vector<std::pair<std::uint64_t, double>> out;
  for (int i = 1;; ++i) {
    const std::string key = prefix + std::to_string(i);
    const auto value = config.get(key);
    if (!value) return out;
    const std::size_t at = value->find('@');
    const std::string id = trim(value->substr(0, at));
    const std::string secs =
        at == std::string::npos ? "" : trim(value->substr(at + 1));
    char* id_end = nullptr;
    char* secs_end = nullptr;
    const std::uint64_t n = std::strtoull(id.c_str(), &id_end, 10);
    const double t = std::strtod(secs.c_str(), &secs_end);
    if (id.empty() || !std::isdigit(static_cast<unsigned char>(id[0])) ||
        *id_end != '\0' || secs.empty() || *secs_end != '\0') {
      throw ConfigError("key '" + key + "' must be '" + form + "': " +
                        *value);
    }
    out.emplace_back(n, t);
  }
}

}  // namespace

cluster::Cluster build_cluster(const Config& config) {
  cluster::ClusterBuilder builder;
  bool any = false;
  for (int g = 1;; ++g) {
    const std::string section = "group" + std::to_string(g);
    if (!config.has(section + ".count")) break;
    any = true;
    cluster::MachineSpec spec;
    spec.model = config.get_string(section + ".model", section);
    spec.base_ips = config.require_double(section + ".ips");
    spec.slots =
        static_cast<std::uint32_t>(config.get_int(section + ".slots", 4));
    const double slowdown = config.get_double(section + ".slowdown", 1.0);
    builder.add(spec,
                static_cast<std::uint32_t>(
                    config.require_int(section + ".count")),
                slowdown < 1.0 ? cluster::static_slowdown(slowdown)
                               : cluster::no_interference());
  }
  if (!any) {
    throw ConfigError(
        "config defines no [groupN] cluster sections (missing key "
        "'group1.count')");
  }
  return builder.build();
}

workloads::SchedulerKind parse_scheduler_kind(const std::string& name) {
  using workloads::SchedulerKind;
  if (name == "hadoop") return SchedulerKind::kHadoop;
  if (name == "hadoop-nospec") return SchedulerKind::kHadoopNoSpec;
  if (name == "skewtune") return SchedulerKind::kSkewTune;
  if (name == "flexmap") return SchedulerKind::kFlexMap;
  if (name == "flexmap-nov") return SchedulerKind::kFlexMapNoVertical;
  if (name == "flexmap-noh") return SchedulerKind::kFlexMapNoHorizontal;
  if (name == "flexmap-norb") return SchedulerKind::kFlexMapNoReduceBias;
  throw ConfigError("unknown scheduler: " + name);
}

mr::SharePolicy parse_share_policy(const std::string& name) {
  if (name == "fifo") return mr::SharePolicy::kFifo;
  if (name == "fair") return mr::SharePolicy::kFair;
  if (name == "weighted-fair") return mr::SharePolicy::kWeightedFair;
  throw ConfigError("unknown share policy: " + name);
}

ServiceConfig parse_service_config(const Config& config) {
  ServiceConfig out;
  out.total_jobs = static_cast<std::size_t>(
      config.get_int("service.total_jobs", 100));
  out.max_concurrent_jobs = static_cast<std::uint32_t>(
      config.get_int("service.max_concurrent_jobs", 4));
  out.policy = parse_share_policy(
      config.get_string("service.policy", "weighted-fair"));
  out.block_size = config.get_double("service.block_mb", kDefaultBlockMiB);
  out.replication = static_cast<std::uint32_t>(
      config.get_int("service.replication", 3));
  out.params.seed =
      static_cast<std::uint64_t>(config.get_int("service.seed", 42));
  out.share_sample_period_s =
      config.get_double("service.share_sample_period_s", 30.0);

  out.preemption.enabled = config.get_bool("preemption.enabled", false);
  out.preemption.period_s = config.get_double("preemption.period_s", 30.0);
  out.preemption.over_share_factor =
      config.get_double("preemption.over_share_factor", 1.25);
  out.preemption.max_kills_per_round = static_cast<std::uint32_t>(
      config.get_int("preemption.max_kills_per_round", 2));

  for (int t = 1;; ++t) {
    const std::string section = "tenant" + std::to_string(t);
    if (!config.has(section + ".name")) break;
    TenantSpec tenant;
    tenant.name = config.require_string(section + ".name");
    tenant.weight = config.get_double(section + ".weight", 1.0);
    tenant.arrivals_per_hour =
        config.get_double(section + ".arrivals_per_hour", 30.0);
    tenant.benchmarks =
        split_csv(config.get_string(section + ".benchmarks", "WC"));
    const std::string scale = config.get_string(section + ".scale", "small");
    if (scale == "small") {
      tenant.scale = workloads::InputScale::kSmall;
    } else if (scale == "large") {
      tenant.scale = workloads::InputScale::kLarge;
    } else {
      throw ConfigError("tenant scale must be small or large: " + scale);
    }
    tenant.scheduler = parse_scheduler_kind(
        config.get_string(section + ".scheduler", "flexmap"));
    out.tenants.push_back(std::move(tenant));
  }

  for (const auto& [node, at] :
       read_at_list(config, "failures.node", "<node> @ <time>")) {
    out.node_failures.emplace_back(static_cast<NodeId>(node), at);
  }

  // [am] — AM-crash injection: crashN = '<job> @ <seconds after admission>'.
  out.am_max_attempts = static_cast<std::uint32_t>(
      config.get_int("am.max_attempts", 2));
  out.am_restart_delay_s = config.get_double("am.restart_delay_s", 10.0);
  for (const auto& [job, offset] :
       read_at_list(config, "am.crash", "<job> @ <offset>")) {
    out.am_crashes.emplace_back(static_cast<std::size_t>(job), offset);
  }
  return out;
}

JobConfig parse_job_config(const Config& config) {
  JobConfig out;
  out.bench = workloads::benchmark(config.get_string("job.benchmark", "WC"));
  out.bench.small_input = gib_to_mib(config.get_double("job.input_gib", 4));
  out.run.block_size = config.get_double("job.block_mb", 64.0);
  out.run.params.seed =
      static_cast<std::uint64_t>(config.get_int("run.seed", 1));
  for (const auto& [node, at] :
       read_at_list(config, "failures.node", "<node> @ <time>")) {
    out.run.faults.crashes.push_back(faults::NodeCrash{
        static_cast<NodeId>(node), at, std::nullopt, /*silent=*/false});
  }
  out.scheduler =
      parse_scheduler_kind(config.get_string("run.scheduler", "flexmap"));
  return out;
}

const char* demo_config() {
  return R"(
# Built-in demo: mixed 10-node cluster, three tenants, preemption on.
[group1]
model = rack server
count = 6
ips = 12
slots = 4

[group2]
model = legacy box
count = 4
ips = 6
slots = 4

[service]
total_jobs = 24
max_concurrent_jobs = 4
policy = weighted-fair
seed = 42

[preemption]
enabled = true
period_s = 30

[tenant1]
name = analytics
weight = 2
arrivals_per_hour = 60
benchmarks = WC, II
scheduler = flexmap

[tenant2]
name = reporting
weight = 1
arrivals_per_hour = 40
benchmarks = GR, HR
scheduler = flexmap

[tenant3]
name = batch
weight = 1
arrivals_per_hour = 20
benchmarks = TS
scheduler = hadoop
)";
}

}  // namespace flexmr::service
