// The schedulers' per-offer caches: LATE's candidates and slow-node
// threshold, SkewTune's straggler and FlexMap's capacity sums are keyed on
// the driver's state versions (DriverContext::map_state_version and
// cluster_view_version). A context that reports both versions as 0 ("not
// tracked") and leaves aged_running_maps() and running_maps_among() to
// DriverContext's defaults puts every policy on its uncached,
// full-snapshot path: the reference. These tests run the same jobs both
// ways and require byte-identical results; the forwarding side also checks
// every read against the default. They pin how much running-map state
// each path reads on bench_scale's 256-node grid, and SkewTune's answers
// against hashes taken before its search skipped any map.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/scale_grid.hpp"
#include "common/rng.hpp"
#include "mr/driver.hpp"
#include "mr/result_json.hpp"
#include "tests/golden_cases.hpp"

namespace flexmr {
namespace {

using faults::FaultPlan;
using faults::NodeCrash;
using workloads::InputScale;
using workloads::SchedulerKind;

bool same_entry(const mr::RunningMapInfo& a, const mr::RunningMapInfo& b) {
  return a.id == b.id && a.node == b.node && a.size_mib == b.size_mib &&
         a.bytes_read == b.bytes_read && a.progress == b.progress &&
         a.dispatch_time == b.dispatch_time && a.computing == b.computing &&
         a.speculative == b.speculative && a.has_twin == b.has_twin;
}

/// The DriverContext a wrapped policy sees: every accessor forwards to the
/// real driver, bound per callback. Unless `forward` is set it reports
/// both state versions as 0 and answers aged_running_maps() and
/// running_maps_among() with DriverContext's defaults, which read
/// running_maps(). With `forward` set it forwards all four, and checks
/// every read against the default computed on the real driver.
class ForwardingContext final : public mr::DriverContext {
 public:
  explicit ForwardingContext(bool forward) : forward_(forward) {}

  mr::DriverContext& bind(mr::DriverContext& inner) {
    inner_ = &inner;
    return *this;
  }

  // Counted from const accessors, hence mutable.
  mutable std::uint64_t running_maps_calls = 0;
  mutable std::uint64_t running_maps_entries = 0;
  mutable std::uint64_t aged_reads = 0;          ///< Forwarded aged reads.
  mutable std::uint64_t aged_entries = 0;        ///< Entries they returned.
  mutable std::uint64_t speculating_reads = 0;   ///< Reads counting a copy.
  mutable std::uint64_t id_reads = 0;      ///< Forwarded reads by id.
  mutable std::uint64_t ids_asked = 0;     ///< Ids they asked for.
  mutable std::uint64_t id_entries = 0;    ///< Entries they returned.
  mutable std::uint64_t mismatches = 0;    ///< Reads != the default.

  SimTime now() const override { return inner_->now(); }
  const mr::JobSpec& job() const override { return inner_->job(); }
  const mr::SimParams& params() const override { return inner_->params(); }
  const hdfs::FileLayout& layout() const override { return inner_->layout(); }
  hdfs::BlockLocationIndex& index() override { return inner_->index(); }
  std::uint32_t num_nodes() const override { return inner_->num_nodes(); }
  const cluster::MachineSpec& machine_spec(NodeId node) const override {
    return inner_->machine_spec(node);
  }
  std::uint32_t free_slots(NodeId node) const override {
    return inner_->free_slots(node);
  }
  std::uint32_t total_free_slots() const override {
    return inner_->total_free_slots();
  }
  std::uint32_t total_slots() const override { return inner_->total_slots(); }
  std::vector<mr::RunningMapInfo> running_maps() const override {
    auto maps = inner_->running_maps();
    ++running_maps_calls;
    running_maps_entries += maps.size();
    return maps;
  }
  std::size_t aged_running_maps(
      SimDuration min_age,
      std::vector<mr::RunningMapInfo>& out) const override {
    if (!forward_) return DriverContext::aged_running_maps(min_age, out);
    const std::size_t speculating = inner_->aged_running_maps(min_age, out);
    ++aged_reads;
    aged_entries += out.size();
    if (speculating > 0) ++speculating_reads;
    std::vector<mr::RunningMapInfo> expected;
    const std::size_t expected_speculating =
        inner_->DriverContext::aged_running_maps(min_age, expected);
    if (speculating != expected_speculating ||
        !std::equal(out.begin(), out.end(), expected.begin(), expected.end(),
                    same_entry)) {
      ++mismatches;
    }
    return speculating;
  }
  void running_maps_among(
      const std::vector<TaskId>& ids,
      std::vector<mr::RunningMapInfo>& out) const override {
    if (!forward_) return DriverContext::running_maps_among(ids, out);
    inner_->running_maps_among(ids, out);
    ++id_reads;
    ids_asked += ids.size();
    id_entries += out.size();
    std::vector<mr::RunningMapInfo> expected;
    inner_->DriverContext::running_maps_among(ids, expected);
    if (!std::equal(out.begin(), out.end(), expected.begin(), expected.end(),
                    same_entry)) {
      ++mismatches;
    }
  }
  std::uint64_t map_state_version() const override {
    return forward_ ? inner_->map_state_version() : 0;
  }
  std::uint64_t cluster_view_version() const override {
    return forward_ ? inner_->cluster_view_version() : 0;
  }
  std::optional<MiBps> observed_ips(NodeId node) const override {
    return inner_->observed_ips(node);
  }
  double map_phase_progress() const override {
    return inner_->map_phase_progress();
  }
  std::size_t total_bus() const override { return inner_->total_bus(); }
  std::size_t processed_bus() const override {
    return inner_->processed_bus();
  }
  std::size_t unassigned_bus() const override {
    return inner_->unassigned_bus();
  }
  std::uint32_t total_reducers() const override {
    return inner_->total_reducers();
  }
  MiB next_reducer_input() const override {
    return inner_->next_reducer_input();
  }
  MiB mean_reducer_input() const override {
    return inner_->mean_reducer_input();
  }
  bool node_alive(NodeId node) const override {
    return inner_->node_alive(node);
  }
  bool node_blacklisted(NodeId node) const override {
    return inner_->node_blacklisted(node);
  }
  bool block_readable(std::uint32_t block) const override {
    return inner_->block_readable(block);
  }
  obs::EventTracer* tracer() const override { return inner_->tracer(); }
  recover::JobJournal* journal() const override { return inner_->journal(); }
  std::vector<BlockUnitId> kill_and_reclaim(TaskId task) override {
    return inner_->kill_and_reclaim(task);
  }

 private:
  bool forward_;
  mr::DriverContext* inner_ = nullptr;
};

/// Forwards every Scheduler callback to `inner` through a
/// ForwardingContext. Also counts reduce offers whose next reducer is
/// large enough for FlexMap's size guard to judge it.
class ForwardingScheduler final : public mr::Scheduler {
 public:
  ForwardingScheduler(std::unique_ptr<mr::Scheduler> inner, bool forward)
      : inner_(std::move(inner)), ctx_(forward) {}

  const ForwardingContext& context() const { return ctx_; }
  std::uint64_t heavy_reducer_offers = 0;

  std::string name() const override { return inner_->name(); }
  void on_job_start(mr::DriverContext& ctx) override {
    inner_->on_job_start(ctx_.bind(ctx));
  }
  void on_recovery(mr::DriverContext& ctx,
                   const recover::RecoveredState& recovered) override {
    inner_->on_recovery(ctx_.bind(ctx), recovered);
  }
  std::optional<mr::MapLaunch> on_slot_free(mr::DriverContext& ctx,
                                            NodeId node) override {
    return inner_->on_slot_free(ctx_.bind(ctx), node);
  }
  void on_map_dispatch(mr::DriverContext& ctx, TaskId task,
                       NodeId node) override {
    inner_->on_map_dispatch(ctx_.bind(ctx), task, node);
  }
  void on_map_complete(mr::DriverContext& ctx,
                       const mr::TaskRecord& rec) override {
    inner_->on_map_complete(ctx_.bind(ctx), rec);
  }
  void on_heartbeat(mr::DriverContext& ctx, NodeId node) override {
    inner_->on_heartbeat(ctx_.bind(ctx), node);
  }
  void on_node_failed(mr::DriverContext& ctx, NodeId node,
                      const std::vector<BlockUnitId>& reclaimed) override {
    inner_->on_node_failed(ctx_.bind(ctx), node, reclaimed);
  }
  void on_attempt_failed(mr::DriverContext& ctx, NodeId node,
                         const std::vector<BlockUnitId>& reclaimed) override {
    inner_->on_attempt_failed(ctx_.bind(ctx), node, reclaimed);
  }
  void on_node_recovered(mr::DriverContext& ctx, NodeId node) override {
    inner_->on_node_recovered(ctx_.bind(ctx), node);
  }
  void on_block_rehosted(mr::DriverContext& ctx, std::uint32_t block,
                         NodeId node) override {
    inner_->on_block_rehosted(ctx_.bind(ctx), block, node);
  }
  bool accept_reducer(mr::DriverContext& ctx, NodeId node) override {
    const MiB mean = ctx.mean_reducer_input();
    if (mean > 0.0 && ctx.next_reducer_input() > 1.5 * mean) {
      ++heavy_reducer_offers;
    }
    return inner_->accept_reducer(ctx_.bind(ctx), node);
  }

 private:
  std::unique_ptr<mr::Scheduler> inner_;
  ForwardingContext ctx_;
};

constexpr SchedulerKind kSchedulers[] = {
    SchedulerKind::kHadoop, SchedulerKind::kHadoopNoSpec,
    SchedulerKind::kSkewTune, SchedulerKind::kFlexMap};

/// A run through a ForwardingScheduler: the result document and what the
/// context counted.
struct ForwardedRun {
  std::string json;
  std::uint64_t heavy_reducer_offers = 0;
  std::uint64_t aged_reads = 0;
  std::uint64_t speculating_reads = 0;
  std::uint64_t id_reads = 0;
  std::uint64_t mismatches = 0;
};

ForwardedRun forwarded_run(const ForwardingScheduler& scheduler,
                           std::string json) {
  const ForwardingContext& ctx = scheduler.context();
  return {std::move(json), scheduler.heavy_reducer_offers, ctx.aged_reads,
          ctx.speculating_reads, ctx.id_reads, ctx.mismatches};
}

/// One golden-configuration run (the paper's 20-node virtual cluster, WC,
/// seed 1234) through a ForwardingScheduler.
ForwardedRun run_golden_config(SchedulerKind kind, MiB block_size,
                               const FaultPlan& plan, bool forward) {
  auto cluster = cluster::presets::virtual20();
  workloads::RunConfig config;
  config.block_size = block_size;
  config.params.seed = 1234;
  config.faults = plan;
  ForwardingScheduler scheduler(workloads::make_scheduler(kind, 1234),
                                forward);
  auto result =
      workloads::run_job(cluster, workloads::benchmark("WC"),
                         InputScale::kSmall, scheduler, config);
  result.scheduler = workloads::scheduler_label(kind);
  return forwarded_run(scheduler, mr::job_result_json(result, cluster));
}

std::string run_uncached(SchedulerKind kind, MiB block_size,
                         const FaultPlan& plan) {
  return run_golden_config(kind, block_size, plan, false).json;
}

/// LATE reads the maps old enough to judge; SkewTune reads by id.
bool reads_aged_maps(SchedulerKind kind) {
  return kind == SchedulerKind::kHadoop;
}
bool reads_maps_by_id(SchedulerKind kind) {
  return kind == SchedulerKind::kSkewTune;
}

TEST(SchedulerCaches, UncachedPathReproducesEveryGolden) {
  for (const auto& c : golden::kCases) {
    EXPECT_EQ(golden::fnv1a(run_uncached(c.kind, c.block_size, {})),
              c.expected)
        << c.label;
  }
  for (const auto& c : golden::kFaultCases) {
    EXPECT_EQ(golden::fnv1a(run_uncached(c.kind, c.block_size,
                                         golden::golden_fault_plan())),
              c.expected)
        << c.label;
  }
  FaultPlan am_crash;
  am_crash.am_crashes = {40.0};
  EXPECT_EQ(golden::fnv1a(run_uncached(SchedulerKind::kHadoop,
                                       kDefaultBlockMiB, am_crash)),
            golden::kMidMapAmCrashGolden);
}

TEST(SchedulerCaches, AmRestartReadsNoPredecessorCache) {
  // The successor AM's driver counts its versions from 1 again; every
  // policy must drop what it cached about the crashed attempt.
  FaultPlan plan = golden::golden_fault_plan();
  plan.am_crashes = {40.0, 110.0};
  plan.am_max_attempts = 3;
  plan.max_attempts = 8;
  for (const SchedulerKind kind : kSchedulers) {
    auto cluster = cluster::presets::virtual20();
    workloads::RunConfig config;
    config.params.seed = 1234;
    config.faults = plan;
    auto cached = workloads::run_job(cluster, workloads::benchmark("WC"),
                                     InputScale::kSmall, kind, config);
    const std::string label = workloads::scheduler_label(kind);
    EXPECT_EQ(cached.am_restarts, 2u) << label;
    const std::string uncached = run_uncached(kind, kDefaultBlockMiB, plan);
    EXPECT_EQ(mr::job_result_json(cached, cluster), uncached) << label;
    // Every read of all three attempts matches the default.
    const ForwardedRun forwarded =
        run_golden_config(kind, kDefaultBlockMiB, plan, true);
    EXPECT_EQ(forwarded.json, uncached) << label;
    EXPECT_EQ(forwarded.mismatches, 0u) << label;
    EXPECT_EQ(forwarded.aged_reads > 0, reads_aged_maps(kind)) << label;
    EXPECT_EQ(forwarded.id_reads > 0, reads_maps_by_id(kind)) << label;
  }
}

/// One seeded fault run, cut at 5000 simulated seconds; aborted and
/// stalled runs would compare too.
struct SweepCase {
  SchedulerKind kind;
  std::uint64_t seed;
  FaultPlan plan;
  hdfs::StoragePolicy storage;
  workloads::Benchmark bench;
};

ForwardedRun run_case_on(cluster::Cluster& cluster, const SweepCase& c,
                         bool forward, mr::SimParams params = {}) {
  const auto layout = workloads::make_layout(
      c.bench, InputScale::kSmall, cluster.num_nodes(), kDefaultBlockMiB, 3,
      c.seed, c.storage);
  const auto spec = workloads::to_job_spec(c.bench, InputScale::kSmall);
  ForwardingScheduler scheduler(workloads::make_scheduler(c.kind, c.seed),
                                forward);
  Simulator sim;
  params.seed = c.seed;
  mr::JobDriver driver(sim, cluster, layout, spec, params, scheduler);
  driver.install_faults(c.plan);
  driver.start();
  while (!driver.done() && sim.now() < 5000.0 && sim.step()) {
  }
  return forwarded_run(scheduler,
                       mr::job_result_json(driver.result(), cluster));
}

/// `c` on a 12-node mixed cluster.
ForwardedRun run_sweep_case(const SweepCase& c, bool forward) {
  // Slow nodes first: they are offered first, so heavy reducers reach
  // them while their quota lasts.
  auto cluster = cluster::ClusterBuilder()
                     .add({.model = "slow", .base_ips = 4.0, .slots = 4}, 4)
                     .add({.model = "mid", .base_ips = 11.0, .slots = 4}, 5)
                     .add({.model = "fast", .base_ips = 14.0, .slots = 4}, 3)
                     .build();
  return run_case_on(cluster, c, forward);
}

/// 1–3 silent crashes between 20 and 120 s, each rejoining 30–90 s later,
/// plus launch, attempt and fetch failures.
FaultPlan sweep_plan(std::uint64_t seed, std::uint32_t nodes) {
  FaultPlan plan;
  Rng rng(seed);
  const auto crashes = 1 + rng() % 3;
  for (std::uint64_t i = 0; i < crashes; ++i) {
    const SimTime at = 20.0 + 100.0 * rng.uniform();
    NodeId node = 0;
    do {
      node = static_cast<NodeId>(rng() % nodes);
    } while (std::any_of(plan.crashes.begin(), plan.crashes.end(),
                         [node](const NodeCrash& c) { return c.node == node; }));
    plan.crashes.push_back(
        NodeCrash{node, at, at + 30.0 + 60.0 * rng.uniform(), true});
  }
  plan.container_launch_failure_prob = 0.02;
  plan.attempt_failure_prob = 0.02;
  plan.fetch_failure_prob = 0.01;
  plan.max_attempts = 8;
  return plan;
}

workloads::Benchmark sweep_bench(MiB input, double key_skew) {
  auto bench = workloads::benchmark("WC");
  bench.small_input = input;
  bench.shuffle_ratio = 0.5;
  bench.reduce_key_skew = key_skew;
  return bench;
}

/// Runs `c` forwarded and on the reference path; requires the same bytes
/// and every forwarded read equal to the default's answer.
ForwardedRun expect_same_bytes(const SweepCase& c, const std::string& what) {
  const ForwardedRun cached = run_sweep_case(c, true);
  const ForwardedRun uncached = run_sweep_case(c, false);
  EXPECT_EQ(cached.json, uncached.json)
      << what << ": " << workloads::scheduler_label(c.kind) << " seed "
      << c.seed;
  EXPECT_EQ(cached.mismatches, 0u)
      << what << ": " << workloads::scheduler_label(c.kind) << " seed "
      << c.seed;
  return cached;
}

TEST(SchedulerCaches, SeededFaultSweepIsByteIdenticalUncached) {
  for (const SchedulerKind kind : kSchedulers) {
    std::uint64_t aged_reads = 0;
    std::uint64_t id_reads = 0;
    std::uint64_t speculating = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      const ForwardedRun run = expect_same_bytes(
          {kind, seed, sweep_plan(seed, 12), {}, sweep_bench(16384.0, 0.0)},
          "replicated");
      aged_reads += run.aged_reads;
      id_reads += run.id_reads;
      speculating += run.speculating_reads;
    }
    // The checks above saw reads, and LATE's saw speculative copies.
    const std::string label = workloads::scheduler_label(kind);
    EXPECT_EQ(aged_reads > 0, reads_aged_maps(kind)) << label;
    EXPECT_EQ(id_reads > 0, reads_maps_by_id(kind)) << label;
    EXPECT_EQ(speculating > 0, kind == SchedulerKind::kHadoop) << label;
  }
}

TEST(SchedulerCaches, ErasureDiskFaultIsByteIdenticalUncached) {
  for (const SchedulerKind kind : kSchedulers) {
    FaultPlan plan = sweep_plan(7, 12);
    plan.disk_faults = {faults::DiskFault{5, 1, 35.0}};
    expect_same_bytes({kind, 7, plan, hdfs::StoragePolicy::rs(6, 3),
                       sweep_bench(16384.0, 0.0)},
                      "rs(6,3) with a disk fault");
  }
}

TEST(SchedulerCaches, FlexMapSizeGuardIsByteIdenticalUncached) {
  // A steep key skew makes the head reducers several times the mean, so
  // FlexMap's size guard judges them against the cached max share.
  const SweepCase c{SchedulerKind::kFlexMap, 3, sweep_plan(3, 12), {},
                    sweep_bench(16384.0, 1.2)};
  const ForwardedRun cached = run_sweep_case(c, true);
  const ForwardedRun uncached = run_sweep_case(c, false);
  EXPECT_GT(cached.heavy_reducer_offers, 0u);
  EXPECT_EQ(cached.heavy_reducer_offers, uncached.heavy_reducer_offers);
  EXPECT_EQ(cached.json, uncached.json);
}

/// One bench_scale job at 256 nodes × 25 tasks/node (seed 42), and the
/// running-map state its policy read.
struct ScaleRun {
  std::string json;
  std::uint64_t snapshots = 0;  ///< running_maps() calls.
  std::uint64_t snapshot_entries = 0;
  std::uint64_t aged_reads = 0;
  std::uint64_t aged_entries = 0;
  std::uint64_t id_reads = 0;
  std::uint64_t ids_asked = 0;
  std::uint64_t id_entries = 0;
  std::uint64_t mismatches = 0;
};

ScaleRun run_scale_grid(SchedulerKind kind, bool forward) {
  auto cluster = bench::make_scale_cluster(256);
  workloads::RunConfig config;
  config.params.seed = 42;
  ForwardingScheduler scheduler(workloads::make_scheduler(kind, 42),
                                forward);
  const auto result =
      workloads::run_job(cluster, bench::make_scale_benchmark(256, 25),
                         InputScale::kSmall, scheduler, config);
  const ForwardingContext& ctx = scheduler.context();
  return {mr::job_result_json(result, cluster),
          ctx.running_maps_calls,
          ctx.running_maps_entries,
          ctx.aged_reads,
          ctx.aged_entries,
          ctx.id_reads,
          ctx.ids_asked,
          ctx.id_entries,
          ctx.mismatches};
}

TEST(SchedulerCaches, SnapshotCountsAtScaleGridArePinned) {
  // Deterministic work, not host time. Uncached, LATE and SkewTune build
  // one full snapshot per offer that reaches their kernel, as both did
  // before the caches existed. Cached, they read once per (now, map
  // version). LATE's aged reads hand back only the maps old enough to
  // judge (15 s). SkewTune reads by id only the maps whose time-left
  // could have reached its benefit threshold since it last read them; its
  // aged reads of every map at least 5 s old returned 512,308 entries over
  // the same 1,419 reads. Before the aged reads, each cached read was a
  // full snapshot of every running map: `full_entries`, measured on the
  // same grid. FlexMap's sizing reads none.
  const struct {
    SchedulerKind kind;
    std::uint64_t uncached;
    std::uint64_t uncached_entries;
    std::uint64_t full_entries;
    std::uint64_t aged_reads = 0;
    std::uint64_t aged_entries = 0;
    std::uint64_t id_reads = 0;
    std::uint64_t ids_asked = 0;
    std::uint64_t id_entries = 0;
  } kPins[] = {{.kind = SchedulerKind::kHadoop,
                .uncached = 2443,
                .uncached_entries = 909939,
                .full_entries = 616618,
                .aged_reads = 1146,
                .aged_entries = 69874},
               {.kind = SchedulerKind::kSkewTune,
                .uncached = 6375,
                .uncached_entries = 4745760,
                .full_entries = 882633,
                .id_reads = 1419,
                .ids_asked = 7170,
                .id_entries = 1386},
               {.kind = SchedulerKind::kFlexMap,
                .uncached = 0,
                .uncached_entries = 0,
                .full_entries = 0}};
  for (const auto& pin : kPins) {
    const std::string label = workloads::scheduler_label(pin.kind);
    const ScaleRun cached = run_scale_grid(pin.kind, true);
    const ScaleRun uncached = run_scale_grid(pin.kind, false);
    EXPECT_EQ(cached.json, uncached.json) << label;
    EXPECT_EQ(uncached.snapshots, pin.uncached) << label;
    EXPECT_EQ(uncached.snapshot_entries, pin.uncached_entries) << label;
    EXPECT_EQ(cached.snapshots, 0u) << label;
    EXPECT_EQ(cached.aged_reads, pin.aged_reads) << label;
    EXPECT_EQ(cached.aged_entries, pin.aged_entries) << label;
    EXPECT_EQ(cached.id_reads, pin.id_reads) << label;
    EXPECT_EQ(cached.ids_asked, pin.ids_asked) << label;
    EXPECT_EQ(cached.id_entries, pin.id_entries) << label;
    EXPECT_LE(cached.aged_entries + cached.id_entries, pin.full_entries)
        << label;
    EXPECT_EQ(cached.mismatches, 0u) << label;
  }
}

/// A run built to strain SkewTune's straggler search: three quarters of
/// the nodes flip between idle and busy every few seconds, so maps slow
/// down after they were read, and four silent crashes at 60-100 s, while
/// maps run, freeze the maps on their nodes at rate 0 until heartbeat
/// expiry declares them lost. With `jvm_startup_s` above SkewTune's 5 s minimum
/// runtime, maps are still starting when they are first judged.
ForwardedRun run_bound_strain(SimDuration jvm_startup_s, bool forward) {
  cluster::OnOffInterference::Params flicker;
  flicker.mean_idle_s = 4.0;
  flicker.mean_busy_s = 3.0;
  flicker.busy_lo = 0.05;
  flicker.busy_hi = 0.4;
  auto cluster =
      cluster::ClusterBuilder()
          .add({.model = "fast", .base_ips = 14.0, .slots = 4}, 4)
          .add({.model = "mid", .base_ips = 11.0, .slots = 4}, 8,
               cluster::on_off_interference(flicker))
          .add({.model = "slow", .base_ips = 4.0, .slots = 4}, 4,
               cluster::on_off_interference(flicker))
          .build();
  FaultPlan plan;
  for (const auto& [node, at] : {std::pair<NodeId, SimTime>{6, 60.0},
                                 {13, 80.0}, {9, 90.0}, {2, 100.0}}) {
    plan.crashes.push_back(NodeCrash{node, at, at + 70.0, true});
  }
  mr::SimParams params;
  params.jvm_startup_s = jvm_startup_s;
  return run_case_on(
      cluster,
      {SchedulerKind::kSkewTune, 5, plan, {}, sweep_bench(16384.0, 0.0)},
      forward, params);
}

TEST(SchedulerCaches, SkewTuneMatchesFullScanGoldens) {
  // FNV-1a hashes of SkewTune-64m's JobResult JSON, captured while its
  // straggler search still judged every running map at least 5 s old on
  // each read. Both sides of the tests above run the current search, so
  // these pins are what checks that it skips no map that could win.
  EXPECT_EQ(golden::fnv1a(run_scale_grid(SchedulerKind::kSkewTune, true).json),
            0x80b3ff67c78194dcull)
      << "256-node scale grid";
  constexpr std::uint64_t kSweep[] = {
      0x715e3f317f2806a3ull, 0xe287c4de5a6584a1ull, 0xfbefbe4a252b9afeull,
      0x5bf503620afec03cull, 0x5dcb0e52a5aeda07ull, 0xeec145a6d296d8f9ull,
      0x13412b8f7ebcea43ull, 0xb47131109fdff0fbull, 0xcbc048b3174f6647ull,
      0x326c34053e6b4626ull, 0x74cf5f685397f76aull, 0xc2d449a11617a2c7ull};
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const SweepCase c{SchedulerKind::kSkewTune, seed, sweep_plan(seed, 12),
                      {}, sweep_bench(16384.0, 0.0)};
    EXPECT_EQ(golden::fnv1a(run_sweep_case(c, true).json), kSweep[seed - 1])
        << "fault sweep seed " << seed;
  }
  const struct {
    SimDuration jvm_startup_s;
    std::uint64_t expected;
  } kStrain[] = {{1.5, 0x7d97636e63a0c154ull}, {6.0, 0x5c2507f67f2a8e81ull}};
  for (const auto& strain : kStrain) {
    const ForwardedRun run = run_bound_strain(strain.jvm_startup_s, true);
    EXPECT_EQ(golden::fnv1a(run.json), strain.expected)
        << "bound strain, JVM startup " << strain.jvm_startup_s << " s";
    EXPECT_EQ(run.json, run_bound_strain(strain.jvm_startup_s, false).json);
  }
}

}  // namespace
}  // namespace flexmr
