// perfbench: the harness behind perfbench/run.py. One invocation runs one
// workload for a measurement window on the classic engine, one simulation
// at a time on one thread. Each round runs in a forked copy of the harness,
// so it starts from the same pristine heap as a fresh simulator process.
// The harness prints JSON lines that run.py aggregates:
//
//   {"ev":"begin","ops":N}        a unit of N ops (simulated jobs) starts
//   {"ev":"op","ok":B,...}        one op finished (failed ops say why)
//   {"ev":"sample","metric":M,"value":V}   one host-time sample
//   {"ev":"check","name":C,"ok":B,"gating":B,"detail":D}
//   {"ev":"sim",...}              simulated outputs and their digest
//   {"ev":"layers","metrics":{..}}   per-layer metrics (--trace 1)
//
// Usage: perfbench --workload wide|service|faults --seed N --seconds S
//                  --trace 0|1 [--spans-dir DIR]
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "cluster/interference.hpp"
#include "cluster/presets.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "mr/result_json.hpp"
#include "obs/profiler.hpp"
#include "seams.hpp"
#include "service/service.hpp"
#include "simcore/simulator.hpp"
#include "workloads/experiment.hpp"

namespace perfbench {
namespace {

using workloads::InputScale;
using workloads::SchedulerKind;

struct SchedPoint {
  SchedulerKind kind;
  const char* suffix;
};
constexpr SchedPoint kScheds[] = {{SchedulerKind::kHadoop, "hadoop-64m"},
                                  {SchedulerKind::kSkewTune, "skewtune-64m"},
                                  {SchedulerKind::kFlexMap, "flexmap"}};

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

// ---- output ---------------------------------------------------------------

void emit(const JsonWriter& line) {
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

void emit_begin(std::size_t ops, const std::string& unit) {
  JsonWriter w;
  w.begin_object().field("ev", "begin").field("unit", unit);
  w.field("ops", static_cast<std::uint64_t>(ops)).end_object();
  emit(w);
}

void emit_op(bool ok, const std::string& what, const std::string& detail) {
  JsonWriter w;
  w.begin_object().field("ev", "op").field("ok", ok).field("op", what);
  if (!detail.empty()) w.field("detail", detail);
  w.end_object();
  emit(w);
}

void emit_sample(const std::string& metric, double value) {
  JsonWriter w;
  w.begin_object().field("ev", "sample").field("metric", metric);
  w.field("value", value).end_object();
  emit(w);
}

/// A gating check decides `correct`; a non-gating one reports a known
/// defect without blocking the metrics.
void emit_check(const std::string& name, bool ok, bool gating,
                const std::string& detail) {
  JsonWriter w;
  w.begin_object().field("ev", "check").field("name", name).field("ok", ok);
  w.field("gating", gating).field("detail", detail).end_object();
  emit(w);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs `fn` in a forked copy of this process and returns what it hands
/// back, or nullopt when the child did not exit cleanly. Every round starts
/// from the same heap, as a fresh simulator process would: no allocator
/// state carries over from one round to the next, and a round that dies
/// cannot take the harness with it.
std::optional<std::string> in_child(const std::function<std::string()>& fn) {
  std::fflush(stdout);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Die with the harness, and let it find out when it already has.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) std::_Exit(1);
    close(fds[0]);
    int code = 0;
    std::string out;
    try {
      out = fn();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      code = 1;
    }
    std::fflush(stdout);
    for (std::size_t done = 0; done < out.size();) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) {
        code = 1;
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::_Exit(code);
  }
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

/// Moves the process to the next CPU of its original affinity set, so the
/// samples of one run spread over every CPU instead of sticking to one
/// whose speed drifts. A forked round continues from the parent's place.
void rotate_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[next++ % cpus.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

// ---- workload inputs ------------------------------------------------------

// bench_scale's heterogeneous mix: fast and mid servers, slow desktops,
// and bursty interference on ~20% of the fleet.
cluster::Cluster make_scale_cluster(std::uint32_t nodes) {
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
  const std::uint32_t n_fast = std::max(1u, nodes / 8);
  const std::uint32_t n_bursty = std::max(1u, nodes / 5);
  const std::uint32_t n_slow = std::max(1u, (nodes * 3) / 10);
  const std::uint32_t n_mid = nodes - n_fast - n_bursty - n_slow;
  return cluster::ClusterBuilder()
      .add(fast, n_fast)
      .add(mid, n_mid)
      .add(slow, n_slow)
      .add(mid, n_bursty, cluster::on_off_interference(bursty))
      .build();
}

// bench_scale's synthetic wordcount-like job: Hadoop-64m launches about
// tasks_per_node map tasks per node.
workloads::Benchmark make_scale_benchmark(std::uint32_t nodes,
                                          std::uint32_t tasks_per_node) {
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

/// Node crashes for the `faults` plan: ~3% of nodes crash silently in
/// [from, from + span) s and rejoin 60-120 s later.
struct CrashPlan {
  SimTime from;
  SimDuration span;
};
// Only the known-defect probes crash nodes (see make_fault_plan).
constexpr CrashPlan kLateCrashes{20.0, 100.0};  // into the reduce phase
constexpr CrashPlan kEarlyCrashes{15.0, 30.0};  // in the map phase

/// `faults` plan: ~6% of nodes lose one disk in the first minute, and
/// attempts, launches and shuffle fetches fail at 0.02-0.1%. With
/// `crashes`, ~3% of nodes also crash and rejoin. The timed rounds run
/// without node crashes: with them, jobs failed or stalled on some seeds
/// through two defects that JobsWorkload's probes show on every run
/// instead (reduce_crash_probe, double_take_probe).
faults::FaultPlan make_fault_plan(std::uint32_t nodes, std::uint64_t seed,
                                  std::optional<CrashPlan> crashes = {}) {
  Rng rng(seed ^ 0x5eedfa17ull);
  std::vector<NodeId> order(nodes);
  for (NodeId n = 0; n < nodes; ++n) order[n] = n;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  const std::uint32_t n_crash = crashes ? std::max(1u, nodes * 3 / 100) : 0;
  const std::uint32_t n_disk = std::max(1u, nodes * 6 / 100);
  faults::FaultPlan plan;
  for (std::uint32_t i = 0; i < n_crash; ++i) {
    const SimTime at = crashes->from + crashes->span * rng.uniform();
    plan.crashes.push_back(
        {order[i], at, at + 60.0 + 60.0 * rng.uniform(), true});
  }
  for (std::uint32_t i = 0; i < n_disk; ++i) {
    plan.disk_faults.push_back(
        {order[n_crash + i],
         static_cast<std::uint32_t>(rng() % plan.disks_per_node),
         10.0 + 50.0 * rng.uniform()});
  }
  plan.attempt_failure_prob = 0.001;
  plan.container_launch_failure_prob = 0.0005;
  plan.fetch_failure_prob = 0.0002;
  return plan;
}

// `service`: bench_service's three-tenant mix on Table II large inputs with
// its arrival rates scaled by 0.1, weighted-fair sharing with preemption,
// an admission cap of 4, and an AM crash in every tenth job. 50 arrivals
// leave about 30 streams in a window: the host time of one 200-arrival
// stream varied up to fourfold with its input.
constexpr double kServiceSlowFraction = 0.1;
constexpr std::size_t kServiceJobs = 50;

service::ServiceConfig make_service_config(std::uint64_t seed,
                                           std::size_t jobs) {
  service::ServiceConfig config;
  config.tenants = {
      {"analytics", 2.0, 6.0, {"WC", "II"}, InputScale::kLarge,
       SchedulerKind::kFlexMap},
      {"reporting", 1.0, 4.0, {"GR", "HR"}, InputScale::kLarge,
       SchedulerKind::kFlexMap},
      {"batch", 1.0, 2.0, {"TS"}, InputScale::kLarge, SchedulerKind::kHadoop},
  };
  config.total_jobs = jobs;
  config.max_concurrent_jobs = 4;
  config.policy = mr::SharePolicy::kWeightedFair;
  config.preemption.enabled = true;
  config.params.seed = seed;
  for (std::size_t j = 9; j < jobs; j += 10) {
    config.am_crashes.push_back({j, 60.0});
  }
  return config;
}

// A single job whose simulated time passes this multiple of its capacity
// bound (total work over aggregate slot speed) is taken as stalled.
constexpr double kStallFactor = 50.0;
// A seed whose FlexMap job stalls under the `faults` plan with kLateCrashes
// (see JobsWorkload::reduce_crash_probe).
constexpr std::uint64_t kStallSeed = 16916885889345928633ull;
// A seed whose SkewTune-64m job fails an invariant under the `faults` plan
// with kEarlyCrashes (see JobsWorkload::double_take_probe).
constexpr std::uint64_t kDoubleTakeSeed = 9747919254309863993ull;

// ---- per-round accounting -------------------------------------------------

/// Totals of one round's simulated part (what wall_s times).
struct RoundStats {
  double wall_s = 0;
  double setup_s = 0;
  double layout_s = 0;
  std::int64_t slots_leaked = 0;
  SimCounters counters;
  std::uint64_t digest = 1469598103934665603ull;
  std::map<std::string, double> job_wall_s;  // by scheduler suffix
  std::uint64_t stale_compute_start = 0;     // known-defect records
  std::map<std::string, std::uint64_t> fault_events;  // by FaultEventType
  std::uint64_t degraded_reads = 0;
  std::uint64_t parts_reconstructed = 0;
  double repair_read_mib = 0;
  std::uint64_t am_restarts = 0;
  std::uint64_t redone_work_units = 0;
  // service only
  std::uint64_t service_jobs = 0;
  std::uint64_t preemption_kills = 0;
  double jct_p50 = 0, jct_p95 = 0, queue_p95 = 0;
  std::vector<std::pair<std::string, std::size_t>> stream_inputs;
  // traced only: the profiler over the simulated part and one forwarder
  // per scheduler
  std::unique_ptr<obs::Profiler> prof;
  std::map<std::string, std::unique_ptr<TimedScheduler>> timed;

  void add_counters(const SimCounters& c) {
    counters.scheduled += c.scheduled;
    counters.fired += c.fired;
    counters.cancelled += c.cancelled;
    counters.compactions += c.compactions;
    counters.queue_peak = std::max(counters.queue_peak, c.queue_peak);
  }

  void add_result(const mr::JobResult& r) {
    for (const auto& e : r.fault_events) {
      ++fault_events[faults::to_string(e.type)];
    }
    degraded_reads += r.degraded_reads;
    parts_reconstructed += r.parts_reconstructed;
    repair_read_mib += r.repair_read_mib;
    am_restarts += r.am_restarts;
    redone_work_units += r.redone_work_units;
  }

  std::uint64_t fault_count(const char* type) const {
    const auto it = fault_events.find(type);
    return it == fault_events.end() ? 0 : it->second;
  }
};

/// What an untraced round run in a child hands back to the traced run:
/// its deterministic outputs and host times.
struct RoundSummary {
  std::uint64_t digest = 0;
  SimCounters counters;
  std::int64_t slots_leaked = 0;
  double wall_s = 0;
  std::map<std::string, double> job_wall_s;

  static std::string of(const RoundStats& r) {
    std::ostringstream out;
    out.precision(17);
    out << r.digest << ' ' << r.counters.fired << ' ' << r.counters.cancelled
        << ' ' << r.counters.queue_peak << ' ' << r.counters.compactions
        << ' ' << r.slots_leaked << ' ' << r.wall_s;
    for (const auto& [sfx, s] : r.job_wall_s) out << ' ' << sfx << ' ' << s;
    return out.str();
  }

  static RoundSummary parse(const std::string& text) {
    std::istringstream in(text);
    RoundSummary s;
    in >> s.digest >> s.counters.fired >> s.counters.cancelled >>
        s.counters.queue_peak >> s.counters.compactions >> s.slots_leaked >>
        s.wall_s;
    std::string sfx;
    double v = 0;
    while (in >> sfx >> v) s.job_wall_s[sfx] = v;
    return s;
  }
};

/// JobDriver::run()'s loop plus a stall guard: a job still running at
/// kStallFactor times its capacity bound in simulated time has stopped
/// making progress and is cut. Returns why the op failed, or "" (an
/// aborted job is an outcome, not a failure).
std::string run_guarded(mr::JobDriver& driver, Simulator& sim,
                        const hdfs::FileLayout& layout,
                        const mr::JobSpec& spec,
                        const cluster::Cluster& cluster) {
  const double cutoff = kStallFactor * layout.total_work() * spec.map_cost /
                        cluster_capacity(cluster);
  try {
    driver.start();
    while (!driver.done() && sim.now() <= cutoff) {
      if (!sim.step()) return "simulation ran dry before job completion";
    }
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
  if (!driver.done()) {
    return "stalled: unfinished at simulated t=" + std::to_string(sim.now()) +
           " s";
  }
  return "";
}

/// Runs one job, timing driver construction (setup) and the run apart, and
/// reports the op with its checks. A traced run wraps the scheduler in a
/// TimedScheduler, which the round keeps.
void run_single_job(cluster::Cluster& cluster, const hdfs::FileLayout& layout,
                    const mr::JobSpec& spec, const faults::FaultPlan& plan,
                    const SchedPoint& point, std::uint64_t seed,
                    RoundStats& round, bool traced) {
  rotate_cpu();
  const std::uint64_t t0 = now_ns();
  cluster.reset();
  Simulator sim;
  mr::SimParams params;
  params.seed = seed;
  std::unique_ptr<mr::Scheduler> policy =
      workloads::make_scheduler(point.kind, seed);
  std::unique_ptr<TimedScheduler> timed;
  if (traced) timed = std::make_unique<TimedScheduler>(std::move(policy));
  mr::Scheduler& scheduler = timed ? *timed : *policy;
  mr::JobDriver driver(sim, cluster, layout, spec, params, scheduler);
  if (!plan.empty()) driver.install_faults(plan);
  const std::uint64_t t1 = now_ns();
  round.setup_s += static_cast<double>(t1 - t0) / 1e9;

  const std::string op = std::string("job.") + point.suffix;
  emit_begin(1, op);
  std::string error = run_guarded(driver, sim, layout, spec, cluster);
  const double run_s = seconds_since(t1);
  round.wall_s += run_s;
  round.job_wall_s[point.suffix] = run_s;
  round.add_counters(sim.counters());

  mr::JobResult result = driver.result();
  if (error.empty()) {
    result.scheduler = workloads::scheduler_label(point.kind);
    std::vector<std::string> failures;
    round.stale_compute_start += check_job(
        result, layout, spec, cluster_capacity(cluster), failures);
    SlotOverlap overlap;
    overlap.add(result);
    overlap.check(cluster, failures);
    if (!failures.empty()) error = failures.front();
    round.slots_leaked += static_cast<std::int64_t>(driver.total_slots()) -
                          driver.total_free_slots() - driver.slots_in_use();
    round.digest = fnv1a(mr::job_result_json(result, cluster), round.digest);
    round.add_result(result);
  }
  const std::string outcome =
      result.aborted ? "aborted: " + result.abort_reason : "";
  emit_op(error.empty(), op, error.empty() ? outcome : error);
  // Only the forwarder's own counters and spans are read after this.
  if (timed) round.timed[point.suffix] = std::move(timed);
}

/// Profiler scope totals by name, summed over every parent.
struct ScopeTotals {
  std::uint64_t count = 0;
  double self_s = 0;
};

ScopeTotals scope_totals(const obs::Profiler& prof, const char* name) {
  ScopeTotals t;
  for (const auto& s : prof.scopes()) {
    if (std::strcmp(s.name, name) == 0) {
      t.count += s.count;
      t.self_s += static_cast<double>(s.exclusive_ns) / 1e9;
    }
  }
  return t;
}

// ---- workloads -------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir;
};

/// Activates a fresh profiler for the traced part of a round.
class ProfileWindow {
 public:
  ProfileWindow(bool traced, RoundStats& out) {
    if (!traced) return;
    out.prof = std::make_unique<obs::Profiler>();
    obs::Profiler::activate(*out.prof);
    active_ = true;
  }
  ~ProfileWindow() {
    if (active_) obs::Profiler::deactivate();
  }
  ProfileWindow(const ProfileWindow&) = delete;
  ProfileWindow& operator=(const ProfileWindow&) = delete;

 private:
  bool active_ = false;
};

/// What the known-defect probes of `faults` found.
struct ProbeFindings {
  std::uint64_t am_crash_failed = 0;  // schedulers whose AM-crash run failed
  std::uint64_t stalled = 0;          // 1 when the reduce-crash job stalled
  std::uint64_t stale_compute_start = 0;  // stale records in that job
  std::uint64_t double_take = 0;      // 1 when the double-take job failed
};

/// `wide` and `faults`: one job per scheduler on bench_scale's mix.
struct JobsWorkload {
  std::uint32_t nodes;
  std::uint32_t tasks_per_node;
  bool erasure;
  bool with_faults;

  void round(std::uint64_t seed, bool traced, RoundStats& out) const {
    const std::uint64_t t0 = now_ns();
    auto cluster = make_scale_cluster(nodes);
    const auto bench = make_scale_benchmark(nodes, tasks_per_node);
    const std::uint64_t tl = now_ns();
    const auto layout = workloads::make_layout(
        bench, InputScale::kSmall, cluster.num_nodes(), kDefaultBlockMiB, 3,
        seed, storage());
    out.layout_s = seconds_since(tl);
    const auto spec = workloads::to_job_spec(bench, InputScale::kSmall);
    const auto plan = with_faults ? make_fault_plan(cluster.num_nodes(), seed)
                                  : faults::FaultPlan{};
    out.setup_s = seconds_since(t0);
    const ProfileWindow window(traced, out);
    for (const SchedPoint& point : kScheds) {
      run_single_job(cluster, layout, spec, plan, point, seed, out, traced);
    }
  }

  hdfs::StoragePolicy storage() const {
    return erasure ? hdfs::StoragePolicy::rs(6, 3) : hdfs::StoragePolicy{};
  }

  /// Known-defect probe, outside the timed window: the faults plan with
  /// kLateCrashes plus an AM crash at t = 60 s, through the journaled
  /// recovery path. Returns the number of schedulers whose run failed.
  std::uint64_t am_crash_probe(std::uint64_t seed) const {
    auto cluster = make_scale_cluster(nodes);
    const auto bench = make_scale_benchmark(nodes, tasks_per_node);
    std::uint64_t failures = 0;
    for (const SchedPoint& point : kScheds) {
      workloads::RunConfig config;
      config.params.seed = seed;
      config.storage = storage();
      config.faults = make_fault_plan(cluster.num_nodes(), seed, kLateCrashes);
      config.faults.am_crashes = {60.0};
      std::string detail = "completed";
      bool ok = true;
      try {
        workloads::run_job(cluster, bench, InputScale::kSmall, point.kind,
                           config);
      } catch (const mr::JobAbortedError& e) {
        detail = e.what();  // a structured abort is an outcome
      } catch (const std::exception& e) {
        ok = false;
        detail = e.what();
      }
      if (!ok) ++failures;
      emit_check(std::string("recover.am_crash_disk_fault.") + point.suffix,
                 ok, false, detail);
    }
    return failures;
  }

  /// Runs one job of `kind` on the faults plan of `seed` with `crashes`,
  /// outside the timed window. Returns why it failed, or "" when it
  /// finished, and adds its stale reduce records to `stale`.
  std::string probe_job(SchedulerKind kind, std::uint64_t seed,
                        CrashPlan crashes, std::uint64_t& stale) const {
    auto cluster = make_scale_cluster(nodes);
    const auto bench = make_scale_benchmark(nodes, tasks_per_node);
    const auto layout = workloads::make_layout(
        bench, InputScale::kSmall, cluster.num_nodes(), kDefaultBlockMiB, 3,
        seed, storage());
    const auto spec = workloads::to_job_spec(bench, InputScale::kSmall);
    Simulator sim;
    mr::SimParams params;
    params.seed = seed;
    const auto scheduler = workloads::make_scheduler(kind, seed);
    mr::JobDriver driver(sim, cluster, layout, spec, params, *scheduler);
    driver.install_faults(make_fault_plan(cluster.num_nodes(), seed, crashes));
    const std::string error = run_guarded(driver, sim, layout, spec, cluster);
    for (const auto& task : driver.result().tasks) {
      if (stale_reduce_compute_start(task)) ++stale;
    }
    return error;
  }

  /// Known-defect probe: FlexMap on the faults plan of kStallSeed with
  /// kLateCrashes. A node running reducers crashes silently, a lost map
  /// output re-opens the map phase, and the node's loss is detected before
  /// the phase closes again. JobDriver::fail_node re-queues a lost node's
  /// reducers only while the map phase is done, so those reducers stay
  /// frozen on the node and the job never finishes. The job's records also
  /// show the stale-compute-start defect, which the timed rounds, without
  /// node crashes, rarely reach.
  void reduce_crash_probe(ProbeFindings& out) const {
    const std::string error = probe_job(SchedulerKind::kFlexMap, kStallSeed,
                                        kLateCrashes, out.stale_compute_start);
    out.stalled = error.empty() ? 0 : 1;
    emit_check("mr.reduce_crash_stall.flexmap", error.empty(), false,
               error.empty() ? "completed" : error);
    emit_check("mr.stale_reduce_compute_start.late_crashes",
               out.stale_compute_start == 0, false,
               std::to_string(out.stale_compute_start) +
                   " reduce attempt records start computing before dispatch");
  }

  /// Known-defect probe: SkewTune-64m on the faults plan of kDoubleTakeSeed
  /// with kEarlyCrashes. SkewTune splits a straggler into chunks whose
  /// block stays unreadable while crashed part holders are down. A later
  /// failure re-pends that block, the stock path launches its free units,
  /// and serving the chunk then takes them again: InvariantError "unit
  /// already taken" in BlockLocationIndex::take_units, here on a node's
  /// rejoin.
  void double_take_probe(ProbeFindings& out) const {
    std::uint64_t stale = 0;
    const std::string error = probe_job(SchedulerKind::kSkewTune,
                                        kDoubleTakeSeed, kEarlyCrashes, stale);
    out.double_take = error.empty() ? 0 : 1;
    emit_check("sched.skewtune_double_take.skewtune-64m", error.empty(),
               false, error.empty() ? "completed" : error);
  }
};

/// `service`: the ClusterService stream.
struct ServiceWorkload {
  std::size_t jobs;

  void round(std::uint64_t seed, bool traced, RoundStats& out) const {
    const auto config = make_service_config(seed, jobs);
    rotate_cpu();
    const std::uint64_t t0 = now_ns();
    auto cluster = cluster::presets::multitenant40(kServiceSlowFraction);
    Simulator sim;
    service::ClusterService svc(sim, cluster, config);
    out.setup_s = seconds_since(t0);

    emit_begin(jobs, "stream");
    std::string error;
    service::ServiceResult result;
    {
      const ProfileWindow window(traced, out);
      const std::uint64_t t1 = now_ns();
      try {
        result = svc.run();
      } catch (const std::exception& e) {
        error = std::string("exception: ") + e.what();
      }
      out.wall_s = seconds_since(t1);
    }
    out.add_counters(sim.counters());
    if (!error.empty()) {
      for (std::size_t j = 0; j < jobs; ++j) {
        emit_op(false, "stream.job", error);
      }
      return;
    }
    check_stream(svc, cluster, result, out);
    if (traced) {
      // make_layout time for the stream's inputs, rebuilt from the
      // recorded arrivals (ClusterService builds its layouts internally).
      const std::uint64_t tl = now_ns();
      for (std::size_t j = 0; j < out.stream_inputs.size(); ++j) {
        const auto& [code, tenant] = out.stream_inputs[j];
        workloads::make_layout(workloads::benchmark(code),
                               config.tenants[tenant].scale,
                               cluster.num_nodes(),
                               config.block_size, config.replication,
                               seed + j);
      }
      out.layout_s = seconds_since(tl);
    }
  }

  void check_stream(const service::ClusterService& svc,
                    const cluster::Cluster& cluster,
                    const service::ServiceResult& result,
                    RoundStats& out) const {
    const auto& coord = svc.coordinator();
    const double capacity = cluster_capacity(cluster);
    SlotOverlap overlap;
    std::uint32_t in_use = 0;
    for (std::size_t j = 0; j < coord.num_jobs(); ++j) {
      const mr::JobResult r = coord.result(j);
      const auto& driver = coord.driver(j);
      std::vector<std::string> failures;
      out.stale_compute_start +=
          check_job(r, driver.layout(), driver.job(), capacity, failures);
      overlap.add(r);
      in_use += driver.slots_in_use();
      out.add_result(r);
      emit_op(failures.empty(), "stream.job",
              failures.empty() ? "" : failures.front());
    }
    // Arrivals never admitted have no result: count them as failed.
    for (std::size_t j = coord.num_jobs(); j < jobs; ++j) {
      emit_op(false, "stream.job", "never admitted");
    }
    std::vector<std::string> overlap_failures;
    overlap.check(cluster, overlap_failures);
    if (!overlap_failures.empty()) {
      emit_check("stream.slot_overlap", false, true, overlap_failures.front());
    }
    if (coord.num_jobs() > 0) {
      // Every driver reads the shared RM's slot totals.
      const auto& rm_view = coord.driver(0);
      out.slots_leaked = static_cast<std::int64_t>(rm_view.total_slots()) -
                         rm_view.total_free_slots() - in_use;
    }
    out.digest = fnv1a(result.json(), out.digest);
    out.service_jobs = result.jobs.size();
    out.preemption_kills = result.preemption_kills;
    SampleSet jct, queue;
    for (const auto& job : result.jobs) {
      out.stream_inputs.emplace_back(job.benchmark, job.tenant);
      if (job.aborted) continue;
      jct.add(job.jct());
      queue.add(job.queue_delay());
    }
    if (!jct.empty()) {
      out.jct_p50 = jct.quantile(0.5);
      out.jct_p95 = jct.quantile(0.95);
      out.queue_p95 = queue.quantile(0.95);
    }
  }
};

// ---- per-layer metrics -----------------------------------------------------

using Metrics = std::map<std::string, double>;

/// Scheduler and driver-context layers per scheduler. A workload whose
/// schedulers have no public seam (service) reports zeros.
void sched_layer_metrics(const RoundStats& traced, Metrics& m,
                         const std::string& spans_dir,
                         const std::string& workload) {
  const TimedScheduler unseen(nullptr);  // never called: reads as zeros
  for (const SchedPoint& point : kScheds) {
    const std::string sfx = std::string(".") + point.suffix;
    const auto it = traced.timed.find(point.suffix);
    const bool seen = it != traced.timed.end();
    const TimedScheduler& ts = seen ? *it->second : unseen;
    const SpanStats st(ts.log());
    const double job_s = seen ? traced.job_wall_s.at(point.suffix) : 0.0;
    const double sched_s = static_cast<double>(st.root_busy_ns) / 1e9;
    const auto sec = [&](std::uint16_t n) {
      return static_cast<double>(st.busy_ns[n]) / 1e9;
    };
    const double slot_calls = static_cast<double>(st.calls[kSlotFree]);
    m["sched.slot_free.calls" + sfx] = slot_calls;
    m["sched.slot_free.launch_ratio" + sfx] =
        ratio(static_cast<double>(ts.launches), slot_calls);
    m["sched.slot_free.busy_s" + sfx] = sec(kSlotFree);
    m["sched.slot_free.self_s" + sfx] =
        static_cast<double>(st.self_ns[kSlotFree]) / 1e9;
    m["sched.slot_free.p50_us" + sfx] = st.slot_free_quantile_us(0.5);
    m["sched.slot_free.p99_us" + sfx] = st.slot_free_quantile_us(0.99);
    m["sched.slot_free.samples" + sfx] = slot_calls;
    m["sched.speculative_launches" + sfx] =
        static_cast<double>(ts.speculative_launches);
    m["sched.heartbeat.busy_s" + sfx] = sec(kHeartbeat);
    m["sched.map_complete.busy_s" + sfx] = sec(kMapComplete);
    const double accept_calls = static_cast<double>(st.calls[kAcceptReducer]);
    m["sched.accept_reducer.calls" + sfx] = accept_calls;
    m["sched.accept_reducer.accept_ratio" + sfx] =
        ratio(static_cast<double>(ts.reducers_accepted), accept_calls);
    m["sched.accept_reducer.busy_s" + sfx] = sec(kAcceptReducer);
    m["sched.share" + sfx] = ratio(sched_s, job_s);
    const TimedContext& ctx = ts.context();
    m["mr.running_maps.calls" + sfx] =
        static_cast<double>(ctx.running_maps_calls);
    m["mr.running_maps.entries" + sfx] =
        static_cast<double>(ctx.running_maps_entries);
    m["mr.running_maps.busy_s" + sfx] = sec(kRunningMaps);
    m["mr.observed_ips.calls" + sfx] =
        static_cast<double>(ctx.observed_ips_calls);
    m["mr.kill_and_reclaim.calls" + sfx] =
        static_cast<double>(ctx.kill_and_reclaim_calls);
    m["mr.outside_sched_s" + sfx] = std::max(0.0, job_s - sched_s);
    const std::string path = spans_dir + "/" + workload + sfx + ".spans.tsv";
    if (seen && !spans_dir.empty() && !write_spans(ts.log(), path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }
}

/// `plain` is the untraced round of the same inputs.
void common_layer_metrics(const RoundSummary& plain, const RoundStats& traced,
                          Metrics& m) {
  const auto scope = [&](const char* name) {
    return traced.prof ? scope_totals(*traced.prof, name) : ScopeTotals{};
  };
  for (const SchedPoint& point : kScheds) {
    const auto it = plain.job_wall_s.find(point.suffix);
    m[std::string("job_wall_s.") + point.suffix] =
        it == plain.job_wall_s.end() ? 0.0 : it->second;
  }
  m["sched.kernel_self_s"] = scope("sched/late_speculate").self_s +
                             scope("sched/skewtune_argmax").self_s +
                             scope("sched/flexmap_sizing").self_s;

  const ScopeTotals offer_node = scope("rm/offer_node");
  const ScopeTotals offer_all = scope("rm/offer_all");
  m["yarn.offer_node.calls"] = static_cast<double>(offer_node.count);
  m["yarn.offer_node.self_s"] = offer_node.self_s;
  m["yarn.offer_all.calls"] = static_cast<double>(offer_all.count);
  m["yarn.offer_all.self_s"] = offer_all.self_s;
  m["yarn.slots_leaked"] = static_cast<double>(traced.slots_leaked);

  const SimCounters& c = traced.counters;
  m["simcore.events_fired"] = static_cast<double>(c.fired);
  m["simcore.events_cancelled"] = static_cast<double>(c.cancelled);
  m["simcore.cancel_ratio"] = ratio(static_cast<double>(c.cancelled),
                                    static_cast<double>(c.scheduled));
  m["simcore.queue_peak"] = static_cast<double>(c.queue_peak);
  m["simcore.compactions"] = static_cast<double>(c.compactions);
  m["simcore.ns_per_event"] =
      ratio(plain.wall_s * 1e9, static_cast<double>(plain.counters.fired));
  m["simcore.dispatch_self_s"] = scope("sim/dispatch").self_s;

  m["hdfs.layout_s"] = traced.layout_s;
  m["hdfs.degraded_reads"] = static_cast<double>(traced.degraded_reads);
  m["hdfs.parts_reconstructed"] =
      static_cast<double>(traced.parts_reconstructed);
  m["hdfs.repair_read_mib"] = traced.repair_read_mib;
  m["hdfs.re_replicated"] =
      static_cast<double>(traced.fault_count("re-replicated"));
  m["hdfs.replica_pump.self_s"] = scope("hdfs/replica_pump").self_s;

  std::uint64_t events = 0;
  for (const auto& [type, n] : traced.fault_events) events += n;
  m["faults.events"] = static_cast<double>(events);
  m["faults.crashes"] = static_cast<double>(traced.fault_count("crash"));
  m["faults.attempt_failures"] =
      static_cast<double>(traced.fault_count("attempt-failure"));
  m["faults.fetch_failures"] =
      static_cast<double>(traced.fault_count("fetch-failure"));
  m["mr.stale_reduce_compute_start"] =
      static_cast<double>(traced.stale_compute_start);
  m["recover.am_restarts"] = static_cast<double>(traced.am_restarts);
  m["recover.redone_work_units"] =
      static_cast<double>(traced.redone_work_units);

  m["service.jobs"] = static_cast<double>(traced.service_jobs);
  m["service.preemption_kills"] = static_cast<double>(traced.preemption_kills);
  m["service.sim_jct_p50_s"] = traced.jct_p50;
  m["service.sim_jct_p95_s"] = traced.jct_p95;
  m["service.sim_queue_delay_p95_s"] = traced.queue_p95;

  m["obs.trace_overhead"] = ratio(traced.wall_s, plain.wall_s) - 1.0;
}

void emit_sim(const RoundStats& r) {
  JsonWriter w;
  w.begin_object().field("ev", "sim").field("digest", hex64(r.digest));
  w.field("events_fired", r.counters.fired);
  w.field("events_cancelled", r.counters.cancelled);
  w.field("queue_peak", r.counters.queue_peak);
  w.field("compactions", r.counters.compactions);
  if (r.service_jobs > 0) {
    w.field("service_jobs", r.service_jobs);
    w.field("jct_p50_s", r.jct_p50).field("jct_p95_s", r.jct_p95);
    w.field("queue_delay_p95_s", r.queue_p95);
  }
  w.end_object();
  emit(w);
}

/// Known defects of the simulator, reported on every run without
/// blocking the metrics.
void emit_known_defect_checks(const RoundStats& r) {
  emit_check("yarn.slots_leaked", r.slots_leaked == 0, false,
             std::to_string(r.slots_leaked) +
                 " containers not returned after the workload drained");
  emit_check("mr.stale_reduce_compute_start", r.stale_compute_start == 0,
             false,
             std::to_string(r.stale_compute_start) +
                 " reduce attempt records start computing before dispatch");
}

/// Deterministic outputs of the untraced and traced rounds must agree.
void emit_determinism_check(const RoundSummary& a, const RoundStats& b) {
  const bool same = a.digest == b.digest &&
                    a.counters.fired == b.counters.fired &&
                    a.counters.cancelled == b.counters.cancelled &&
                    a.counters.queue_peak == b.counters.queue_peak &&
                    a.counters.compactions == b.counters.compactions &&
                    a.slots_leaked == b.slots_leaked;
  emit_check("obs.traced_equals_untraced", same, true,
             hex64(a.digest) + " vs " + hex64(b.digest));
}

/// Inputs of one round: round 0 uses the run's seed; later rounds draw
/// their own from it, so a run's medians cover several input draws.
std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  return round == 0 ? seed : Rng(seed ^ (0x9e3779b97f4a7c15ull * round))();
}

/// Runs the known-defect probes in their own child.
ProbeFindings run_probes(const JobsWorkload* probe, std::uint64_t seed) {
  ProbeFindings found;
  if (probe == nullptr) return found;
  const auto out = in_child([&] {
    ProbeFindings f;
    f.am_crash_failed = probe->am_crash_probe(seed);
    probe->reduce_crash_probe(f);
    probe->double_take_probe(f);
    return std::to_string(f.am_crash_failed) + ' ' +
           std::to_string(f.stalled) + ' ' +
           std::to_string(f.stale_compute_start) + ' ' +
           std::to_string(f.double_take);
  });
  std::istringstream in(out.value_or(""));
  in >> found.am_crash_failed >> found.stalled >> found.stale_compute_start >>
      found.double_take;
  return found;
}

template <typename Workload>
void run_workload(const Workload& workload, const Options& opt,
                  const char* name, const JobsWorkload* probe) {
  if (!opt.trace) {
    // Rounds until the window is spent (at least one), each in a child.
    const std::uint64_t start = now_ns();
    double last = 0;
    std::size_t rounds = 0;
    do {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t seed = round_seed(opt.seed, rounds);
      const bool first = rounds++ == 0;
      rotate_cpu();
      const auto done = in_child([&] {
        RoundStats r;
        workload.round(seed, false, r);
        emit_sample("wall_s", r.wall_s);
        emit_sample("setup_s", r.setup_s);
        emit_sample("peak_rss_mib", peak_rss_mib());
        if (first) {
          emit_sim(r);
          emit_known_defect_checks(r);
        }
        return std::string();
      });
      if (!done) emit_op(false, "round", "the round's process failed");
      last = seconds_since(t0);
    } while (seconds_since(start) + last <= opt.seconds);
    run_probes(probe, opt.seed);
    return;
  }
  // An untraced round in a child pins the outputs and the untraced host
  // times; the traced round then runs here, from the same pristine heap.
  const auto plain_text = in_child([&] {
    RoundStats r;
    workload.round(opt.seed, false, r);
    emit_sim(r);
    return RoundSummary::of(r);
  });
  if (!plain_text) throw std::runtime_error("untraced round failed");
  const RoundSummary plain = RoundSummary::parse(*plain_text);
  RoundStats traced;
  workload.round(opt.seed, true, traced);
  emit_known_defect_checks(traced);
  emit_determinism_check(plain, traced);
  Metrics m;
  sched_layer_metrics(traced, m, opt.spans_dir, name);
  common_layer_metrics(plain, traced, m);
  const ProbeFindings found = run_probes(probe, opt.seed);
  m["recover.am_crash_disk_case_failed"] =
      static_cast<double>(found.am_crash_failed);
  m["mr.reduce_crash_stall"] = static_cast<double>(found.stalled);
  m["sched.skewtune_double_take"] = static_cast<double>(found.double_take);
  m["mr.stale_reduce_compute_start"] +=
      static_cast<double>(found.stale_compute_start);
  JsonWriter w;
  w.begin_object().field("ev", "layers").key("metrics").begin_object();
  for (const auto& [k, v] : m) w.field(k, v);
  w.end_object().end_object();
  emit(w);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload wide|service|faults --seed N "
               "--seconds S --trace 0|1 [--spans-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans-dir") {
      opt.spans_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  try {
    if (opt.workload == "wide") {
      const JobsWorkload w{600, 10, false, false};
      run_workload(w, opt, "wide", nullptr);
      return 0;
    }
    if (opt.workload == "faults") {
      const JobsWorkload w{512, 20, true, true};
      run_workload(w, opt, "faults", &w);
      return 0;
    }
    if (opt.workload == "service") {
      const ServiceWorkload w{kServiceJobs};
      run_workload(w, opt, "service", nullptr);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
