// Erasure-coded storage tier: rs(k,m) striped placement, degraded reads,
// the part-repair pipeline, per-disk fault domains, and the structured
// DataLossError when a stripe loses read quorum.
//
// The pinned rs(6,3) golden hashes follow the same FLEXMR_REGEN_GOLDEN
// procedure as tests/golden_cases.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "cluster/presets.hpp"
#include "common/error.hpp"
#include "faults/fault_plan.hpp"
#include "hdfs/block_index.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/replica_manager.hpp"
#include "mr/result_json.hpp"
#include "tests/golden_cases.hpp"
#include "workloads/experiment.hpp"

namespace flexmr {
namespace {

using golden::fnv1a;
using golden::golden_fault_plan;
using hdfs::StoragePolicy;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// The canonical fault plan with a wider attempt budget: rs(6,3) scales
/// locality credit by 1/k, so remote-heavy attempts run longer and
/// SkewTune's mitigation churn re-draws the 5% attempt-failure coin often
/// enough to exhaust the stock budget of 4 on one unlucky BU. The larger
/// budget keeps all four schedulers completing, so the goldens pin full
/// (not aborted) timelines.
faults::FaultPlan erasure_fault_plan() {
  auto plan = golden_fault_plan();
  plan.max_attempts = 8;
  return plan;
}

mr::JobResult run_erasure(workloads::SchedulerKind kind, MiB block_size,
                          const faults::FaultPlan& plan,
                          StoragePolicy storage = StoragePolicy::rs(6, 3)) {
  auto cluster = cluster::presets::virtual20();
  workloads::RunConfig config;
  config.block_size = block_size;
  config.params.seed = 1234;
  config.faults = plan;
  config.storage = storage;
  return workloads::run_job(cluster, workloads::benchmark("WC"),
                            workloads::InputScale::kSmall, kind, config);
}

std::string run_erasure_json(workloads::SchedulerKind kind, MiB block_size,
                             const faults::FaultPlan& plan) {
  auto cluster = cluster::presets::virtual20();
  workloads::RunConfig config;
  config.block_size = block_size;
  config.params.seed = 1234;
  config.faults = plan;
  config.storage = StoragePolicy::rs(6, 3);
  const auto result =
      workloads::run_job(cluster, workloads::benchmark("WC"),
                         workloads::InputScale::kSmall, kind, config);
  return mr::job_result_json(result, cluster);
}

std::size_t count_events(const mr::JobResult& result,
                         faults::FaultEventType type) {
  std::size_t n = 0;
  for (const auto& event : result.fault_events) {
    if (event.type == type) ++n;
  }
  return n;
}

struct ReadTotals {
  std::uint64_t bus = 0;
  MiB mib = 0;
};

/// Records and bytes credited to completed map work — what the job
/// actually consumed, healthy or degraded.
ReadTotals credited_totals(const mr::JobResult& result) {
  ReadTotals totals;
  for (const auto& task : result.tasks) {
    if (task.kind != mr::TaskKind::kMap || !task.credited()) continue;
    totals.bus += task.num_bus;
    totals.mib += task.input_mib;
  }
  return totals;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

TEST(ErasurePlacement, StripesOntoKPlusMDistinctNodes) {
  hdfs::NameNode nn(20, hdfs::PlacementPolicy::kRandom, Rng(1234));
  const auto layout =
      nn.create_file(64.0 * 30, 64.0, 3, 8.0, StoragePolicy::rs(6, 3));
  EXPECT_TRUE(layout.storage.erasure());
  EXPECT_EQ(layout.min_live(), 6u);
  EXPECT_EQ(layout.target_holders(), 9u);
  for (const auto& block : layout.blocks) {
    ASSERT_EQ(block.replicas.size(), 9u);
    std::set<NodeId> distinct(block.replicas.begin(), block.replicas.end());
    EXPECT_EQ(distinct.size(), 9u);
  }
}

TEST(ErasurePlacement, DefaultPolicyIsPlainReplication) {
  StoragePolicy storage;
  EXPECT_FALSE(storage.erasure());
  EXPECT_EQ(storage.min_live(), 1u);
  EXPECT_DOUBLE_EQ(storage.overhead(3), 3.0);
  EXPECT_DOUBLE_EQ(StoragePolicy::rs(6, 3).overhead(3), 1.5);
}

// ---------------------------------------------------------------------------
// Config validation (satellite: [storage] + disk-fault knobs)
// ---------------------------------------------------------------------------

TEST(ErasureValidation, RejectsDegenerateCodes) {
  {
    auto p = StoragePolicy::rs(0, 3);
    EXPECT_THROW(p.validate(20), ConfigError);
  }
  {
    auto p = StoragePolicy::rs(6, 0);
    EXPECT_THROW(p.validate(20), ConfigError);
  }
  {
    // k + m = 21 holders cannot be distinct on 20 nodes.
    auto p = StoragePolicy::rs(15, 6);
    EXPECT_THROW(p.validate(20), ConfigError);
  }
  {
    auto p = StoragePolicy::rs(6, 3);
    p.decode_mibps = -1.0;
    EXPECT_THROW(p.validate(20), ConfigError);
  }
  {
    auto p = StoragePolicy::rs(6, 3);
    p.repair_bandwidth_mibps = 0.0;
    EXPECT_THROW(p.validate(20), ConfigError);
  }
  EXPECT_NO_THROW(StoragePolicy::rs(6, 3).validate(20));
}

TEST(ErasureValidation, RunRejectsCodeWiderThanNodesAliveAtStart) {
  // rs(14,6) fits 20 nodes — but one node is already down when the file
  // is written, so only 19 distinct holders exist at t=0.
  auto cluster = cluster::presets::virtual20();
  workloads::RunConfig config;
  config.params.seed = 1234;
  config.storage = StoragePolicy::rs(14, 6);
  config.faults.crashes = {
      faults::NodeCrash{2, 0.0, std::nullopt, /*silent=*/false}};
  EXPECT_THROW(workloads::run_job(cluster, workloads::benchmark("WC"),
                                  workloads::InputScale::kSmall,
                                  workloads::SchedulerKind::kHadoop, config),
               ConfigError);
}

TEST(ErasureValidation, RejectsBadDiskFaultKnobs) {
  {
    faults::FaultPlan plan;
    plan.disks_per_node = 0;
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    faults::FaultPlan plan;
    plan.disk_faults = {faults::DiskFault{9, 0, 10.0}};  // node out of range
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    faults::FaultPlan plan;
    plan.disk_faults = {faults::DiskFault{1, 4, 10.0}};  // disk >= 4
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    faults::FaultPlan plan;
    plan.disk_faults = {faults::DiskFault{1, 2, -1.0}};  // negative time
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    faults::FaultPlan plan;  // the same disk cannot die twice
    plan.disk_faults = {faults::DiskFault{1, 2, 10.0},
                        faults::DiskFault{1, 2, 50.0}};
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    faults::FaultPlan plan;  // degenerate window
    plan.disk_degradations = {faults::DiskDegradedWindow{1, 2, 30.0, 30.0,
                                                         0.5}};
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    faults::FaultPlan plan;  // factor outside (0, 1]
    plan.disk_degradations = {faults::DiskDegradedWindow{1, 2, 10.0, 30.0,
                                                         1.5}};
    EXPECT_THROW(plan.validate(6), ConfigError);
  }
  {
    faults::FaultPlan plan;
    plan.disk_faults = {faults::DiskFault{1, 2, 10.0}};
    plan.disk_degradations = {faults::DiskDegradedWindow{2, 3, 10.0, 30.0,
                                                         0.5}};
    EXPECT_NO_THROW(plan.validate(6));
    EXPECT_FALSE(plan.empty());
  }
}

TEST(ErasureValidation, DiskDegradationFactorIsMinOfActiveWindows) {
  faults::FaultPlan plan;
  plan.disk_degradations = {
      faults::DiskDegradedWindow{1, 2, 10.0, 30.0, 0.5},
      faults::DiskDegradedWindow{1, 2, 20.0, 40.0, 0.25},
  };
  EXPECT_DOUBLE_EQ(plan.disk_degradation_factor(1, 2, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.disk_degradation_factor(1, 2, 15.0), 0.5);
  EXPECT_DOUBLE_EQ(plan.disk_degradation_factor(1, 2, 25.0), 0.25);
  EXPECT_DOUBLE_EQ(plan.disk_degradation_factor(1, 2, 35.0), 0.25);
  EXPECT_DOUBLE_EQ(plan.disk_degradation_factor(1, 3, 25.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.disk_degradation_factor(2, 2, 25.0), 1.0);
}

// ---------------------------------------------------------------------------
// NameNode live view: per-disk loss
// ---------------------------------------------------------------------------

class DiskLossTest : public ::testing::Test {
 protected:
  DiskLossTest()
      : nn_(hdfs::NameNode(6, hdfs::PlacementPolicy::kRandom, Rng(7))),
        layout_(nn_.create_file(64.0 * 12, 64.0, 3, 8.0,
                                StoragePolicy::rs(2, 1))),
        mgr_(layout_, 6) {}

  hdfs::NameNode nn_;
  hdfs::FileLayout layout_;
  hdfs::ReplicaManager mgr_;
};

TEST_F(DiskLossTest, DiskLossDropsOnlyThatDisksParts) {
  const auto& block = layout_.blocks[0];
  const NodeId holder = block.replicas[0];
  const std::uint32_t disk = hdfs::ReplicaManager::disk_of(0, holder, 4);
  const auto report = mgr_.on_disk_lost(holder, disk, 4);
  EXPECT_FALSE(report.lost.empty());
  for (const std::uint32_t b : report.lost) {
    EXPECT_EQ(hdfs::ReplicaManager::disk_of(b, holder, 4), disk);
    EXPECT_FALSE(mgr_.holds_live(b, holder));
  }
  EXPECT_EQ(mgr_.live_holder_count(0), 2u);
  EXPECT_TRUE(report.zero.empty()) << "k=2 survivors keep quorum";
  // The same disk dying again is a no-op: its data is already gone.
  const auto again = mgr_.on_disk_lost(holder, disk, 4);
  EXPECT_TRUE(again.lost.empty());
}

TEST_F(DiskLossTest, LosingQuorumMarksBlockUnreadable) {
  const auto& block = layout_.blocks[0];
  EXPECT_FALSE(mgr_.has_unreadable_blocks());
  // Destroy parts on two of the three holders: 1 live part < k=2.
  for (int i = 0; i < 2; ++i) {
    const NodeId holder = block.replicas[i];
    mgr_.on_disk_lost(holder, hdfs::ReplicaManager::disk_of(0, holder, 4),
                      4);
  }
  EXPECT_EQ(mgr_.live_holder_count(0), 1u);
  EXPECT_TRUE(mgr_.has_unreadable_blocks());
  // A disk loss survives the holder's crash/rejoin cycle: the block
  // report cannot resurrect destroyed media.
  const NodeId dead = block.replicas[0];
  mgr_.on_node_lost(dead);
  mgr_.on_node_restored(dead);
  EXPECT_FALSE(mgr_.holds_live(0, dead));
  EXPECT_EQ(mgr_.live_holder_count(0), 1u);
}

TEST_F(DiskLossTest, RepairReconstructsLostPartAtKTimesReadCost) {
  Simulator sim;
  mgr_.enable_re_replication(sim, 64.0);  // one 64-MiB part per second
  std::uint32_t done_block = faults::kInvalidBlock;
  NodeId done_target = kInvalidNode;
  mgr_.set_copy_complete_handler([&](std::uint32_t block, NodeId target) {
    done_block = block;
    done_target = target;
  });
  const NodeId holder = layout_.blocks[0].replicas[0];
  const std::uint32_t disk = hdfs::ReplicaManager::disk_of(0, holder, 4);
  const auto report = mgr_.on_disk_lost(holder, disk, 4);
  ASSERT_FALSE(report.lost.empty());
  EXPECT_GT(mgr_.under_replicated_count(), 0u);
  while (sim.step()) {
  }
  EXPECT_EQ(mgr_.under_replicated_count(), 0u);
  EXPECT_EQ(mgr_.parts_reconstructed(), report.lost.size());
  // Each reconstructed part reads k surviving parts = one full block.
  EXPECT_DOUBLE_EQ(mgr_.repair_read_mib(),
                   64.0 * static_cast<double>(report.lost.size()));
  EXPECT_NE(done_block, faults::kInvalidBlock);
  EXPECT_NE(done_target, kInvalidNode);
}

TEST(BlockIndexDiskLoss, DroppedReplicaLeavesLocalPoolAndStaysLost) {
  // Three nodes at 3x replication: every node holds every block, so repair
  // can land a lost copy only back on the node that lost it.
  hdfs::NameNode nn(3, hdfs::PlacementPolicy::kRandom, Rng(7));
  const auto layout = nn.create_file(64.0 * 12, 64.0, 3, 8.0);
  hdfs::BlockLocationIndex index(layout, 3);
  hdfs::ReplicaManager mgr(layout, 3);
  Simulator sim;
  mgr.enable_re_replication(sim, 64.0);
  mgr.attach(index);
  const NodeId holder = layout.blocks[0].replicas[0];
  const std::uint32_t disk = hdfs::ReplicaManager::disk_of(0, holder, 4);
  const std::size_t before = index.local_count(holder);
  const auto report = mgr.on_disk_lost(holder, disk, 4);
  std::size_t lost_units = 0;
  for (const std::uint32_t b : report.lost) {
    lost_units += layout.blocks[b].bus.size();
  }
  ASSERT_GT(lost_units, 0u);
  EXPECT_EQ(index.local_count(holder), before - lost_units);
  auto taken = index.take_local(holder, layout.bus.size());
  for (const BlockUnitId bu : taken) {
    EXPECT_NE(hdfs::ReplicaManager::disk_of(layout.bus[bu].block, holder, 4),
              disk)
        << "dropped block must not bind locally";
  }
  index.put_back(taken);
  // A crash and the rejoin's block report must not resurrect the
  // destroyed copies...
  mgr.on_node_lost(holder);
  EXPECT_EQ(index.local_count(holder), 0u);
  mgr.on_node_restored(holder);
  EXPECT_EQ(index.local_count(holder), before - lost_units);
  // ...but repair landing the data back on the node re-arms it.
  while (sim.step()) {
  }
  EXPECT_EQ(mgr.under_replicated_count(), 0u);
  EXPECT_EQ(index.local_count(holder), before);
  mgr.on_disk_lost(holder, disk, 4);
  EXPECT_TRUE(mgr.on_disk_lost(holder, disk, 4).lost.empty())
      << "a second loss of the same disk is a no-op";
  EXPECT_EQ(index.local_count(holder), before - lost_units);
}

// A disk lost while its node is down stays lost after the rejoin: the
// node's pool counts only what its block report lists.
TEST(BlockIndexDiskLoss, DiskLostWhileNodeIsDownStaysLostAfterRejoin) {
  hdfs::NameNode nn(6, hdfs::PlacementPolicy::kRandom, Rng(7));
  const auto layout = nn.create_file(64.0 * 24, 64.0, 3, 8.0);
  hdfs::BlockLocationIndex index(layout, 6);
  hdfs::ReplicaManager mgr(layout, 6);
  mgr.attach(index);
  const NodeId holder = layout.blocks[0].replicas[0];
  const std::uint32_t disk = hdfs::ReplicaManager::disk_of(0, holder, 4);
  const std::size_t before = index.local_count(holder);
  mgr.on_node_lost(holder);
  EXPECT_TRUE(mgr.on_disk_lost(holder, disk, 4).lost.empty());
  mgr.on_node_restored(holder);
  EXPECT_LT(index.local_count(holder), before);
  for (NodeId node = 0; node < 6; ++node) {
    std::size_t live_units = 0;
    for (const auto& block : layout.blocks) {
      if (mgr.holds_live(block.id, node)) live_units += block.bus.size();
    }
    EXPECT_EQ(index.local_count(node), live_units) << "node " << node;
  }
}

// ---------------------------------------------------------------------------
// Pinned rs(6,3) goldens — one per scheduler, under the canonical fault
// plan, so the degraded-read + repair timeline is byte-stable.
// ---------------------------------------------------------------------------

struct ErasureGoldenCase {
  workloads::SchedulerKind kind;
  MiB block_size;
  const char* label;
  std::uint64_t expected;
};

constexpr ErasureGoldenCase kErasureGoldens[] = {
    {workloads::SchedulerKind::kHadoop, kLargeBlockMiB,
     "Erasure-Hadoop-128m", 0xb255e40d5c5ae8a7ull},
    {workloads::SchedulerKind::kHadoopNoSpec, kDefaultBlockMiB,
     "Erasure-HadoopNoSpec-64m", 0xc130a798c9a79397ull},
    {workloads::SchedulerKind::kSkewTune, kDefaultBlockMiB,
     "Erasure-SkewTune-64m", 0xc0b3179751aae531ull},
    {workloads::SchedulerKind::kFlexMap, kDefaultBlockMiB,
     "Erasure-FlexMap", 0x2258112b5d194b41ull},
};

TEST(ErasureGolden, Rs63FaultTimelineMatchesGolden) {
  const bool regen = std::getenv("FLEXMR_REGEN_GOLDEN") != nullptr;
  const auto plan = erasure_fault_plan();
  bool all_match = true;
  for (const auto& c : kErasureGoldens) {
    const std::uint64_t hash =
        fnv1a(run_erasure_json(c.kind, c.block_size, plan));
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
              "kErasureGoldens and re-run without the env var";
  }
  EXPECT_TRUE(all_match);
}

// ---------------------------------------------------------------------------
// Degraded reads + repair
// ---------------------------------------------------------------------------

TEST(ErasureDegradedReads, TotalsMatchHealthyRun) {
  // A permanent crash kills one part of every stripe the node held;
  // unread stripes decode from survivors. The job must still consume
  // exactly the same records and bytes as the healthy run.
  faults::FaultPlan crash;
  crash.crashes = {faults::NodeCrash{3, 25.0, std::nullopt,
                                     /*silent=*/false}};
  const auto healthy =
      run_erasure(workloads::SchedulerKind::kHadoop, kDefaultBlockMiB, {});
  const auto degraded = run_erasure(workloads::SchedulerKind::kHadoop,
                                    kDefaultBlockMiB, crash);
  EXPECT_FALSE(healthy.aborted);
  EXPECT_FALSE(degraded.aborted);
  EXPECT_EQ(healthy.degraded_reads, 0u);
  EXPECT_GT(degraded.degraded_reads, 0u);
  EXPECT_GT(degraded.decode_mib, 0.0);
  const auto h = credited_totals(healthy);
  const auto d = credited_totals(degraded);
  EXPECT_EQ(h.bus, d.bus);
  EXPECT_NEAR(h.mib, d.mib, 1e-6);
  EXPECT_GT(count_events(degraded, faults::FaultEventType::kPartLost), 0u);
}

TEST(ErasureDegradedReads, RepairRestoresPartsAndPricesTraffic) {
  faults::FaultPlan crash;
  crash.crashes = {faults::NodeCrash{3, 25.0, std::nullopt,
                                     /*silent=*/false}};
  const auto result = run_erasure(workloads::SchedulerKind::kFlexMap,
                                  kDefaultBlockMiB, crash);
  EXPECT_FALSE(result.aborted);
  EXPECT_GT(result.parts_reconstructed, 0u);
  // k× amplification: every reconstructed part reads one full block.
  EXPECT_NEAR(result.repair_read_mib,
              kDefaultBlockMiB *
                  static_cast<double>(result.parts_reconstructed),
              1e-6);
  EXPECT_EQ(
      count_events(result, faults::FaultEventType::kPartReconstructed),
      static_cast<std::size_t>(result.parts_reconstructed));
  EXPECT_EQ(count_events(result, faults::FaultEventType::kReReplicated),
            0u);
}

TEST(ErasureDegradedReads, RepairRunsAreByteDeterministic) {
  const auto plan = erasure_fault_plan();
  EXPECT_EQ(run_erasure_json(workloads::SchedulerKind::kHadoop,
                             kDefaultBlockMiB, plan),
            run_erasure_json(workloads::SchedulerKind::kHadoop,
                             kDefaultBlockMiB, plan));
}

TEST(ErasureDiskFaults, SingleDiskLossDegradesAndRepairs) {
  faults::FaultPlan plan;
  plan.disk_faults = {faults::DiskFault{2, 1, 10.0}};
  const auto result = run_erasure(workloads::SchedulerKind::kHadoop,
                                  kDefaultBlockMiB, plan);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(count_events(result, faults::FaultEventType::kDiskFault), 1u);
  EXPECT_GT(count_events(result, faults::FaultEventType::kPartLost), 0u);
  EXPECT_GT(result.parts_reconstructed, 0u);
  // Sanity: the run consumed the whole input despite the dead disk.
  const auto healthy =
      run_erasure(workloads::SchedulerKind::kHadoop, kDefaultBlockMiB, {});
  EXPECT_EQ(credited_totals(result).bus, credited_totals(healthy).bus);
}

TEST(ErasureDiskFaults, ReplicationDiskLossDropsReplicas) {
  // The disk fault domain also applies to plain replication: the disk's
  // replicas are gone (replica-lost, not part-lost) and re-replication
  // restores them.
  faults::FaultPlan plan;
  plan.disk_faults = {faults::DiskFault{2, 1, 10.0}};
  auto cluster = cluster::presets::virtual20();
  workloads::RunConfig config;
  config.params.seed = 1234;
  config.faults = plan;
  const auto result =
      workloads::run_job(cluster, workloads::benchmark("WC"),
                         workloads::InputScale::kSmall,
                         workloads::SchedulerKind::kHadoop, config);
  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(count_events(result, faults::FaultEventType::kDiskFault), 1u);
  EXPECT_GT(count_events(result, faults::FaultEventType::kReplicaLost), 0u);
  EXPECT_EQ(count_events(result, faults::FaultEventType::kPartLost), 0u);
  EXPECT_EQ(result.degraded_reads, 0u);
}

// ---------------------------------------------------------------------------
// Data loss: > m parts gone
// ---------------------------------------------------------------------------

TEST(ErasureDataLoss, MoreThanMPartsLostAbortsWithLostBlocks) {
  // rs(2,1): losing 2 of a stripe's 3 parts destroys it. Kill all nodes
  // but node 0 early — nearly every stripe loses quorum while unread.
  // (virtual20 = 19 worker VMs, §IV-A.)
  faults::FaultPlan plan;
  for (NodeId node = 1; node < 19; ++node) {
    plan.crashes.push_back(
        faults::NodeCrash{node, 5.0, std::nullopt, /*silent=*/false});
  }
  try {
    run_erasure(workloads::SchedulerKind::kHadoop, kDefaultBlockMiB, plan,
                StoragePolicy::rs(2, 1));
    FAIL() << "expected DataLossError";
  } catch (const mr::DataLossError& e) {
    EXPECT_FALSE(e.lost_blocks().empty());
    EXPECT_TRUE(e.result().aborted);
    const std::string what = e.what();
    EXPECT_NE(what.find("more than 1 parts"), std::string::npos) << what;
    EXPECT_GT(count_events(e.result(), faults::FaultEventType::kDataLoss),
              0u);
  }
}

// ---------------------------------------------------------------------------
// JSON surface (satellite: knobs exported only when non-default)
// ---------------------------------------------------------------------------

TEST(ErasureJson, StorageSectionOnlyForErasureRuns) {
  const auto plain = golden::run_case(golden::kCases[1], {});
  EXPECT_EQ(plain.find("\"storage\""), std::string::npos);

  const auto striped = run_erasure_json(workloads::SchedulerKind::kHadoop,
                                        kDefaultBlockMiB, {});
  EXPECT_NE(striped.find("\"storage\":{\"policy\":\"rs\",\"k\":6,\"m\":3"),
            std::string::npos);
  EXPECT_NE(striped.find("\"storage_overhead\":1.5"), std::string::npos);
}

TEST(ErasureJson, DiskFaultPlanIsExportedOnlyWhenPresent) {
  const auto plain = golden::run_case(golden::kCases[1], {});
  EXPECT_EQ(plain.find("\"disk_faults\""), std::string::npos);
  EXPECT_EQ(plain.find("\"disks_per_node\""), std::string::npos);

  faults::FaultPlan plan;
  plan.disks_per_node = 6;
  plan.disk_faults = {faults::DiskFault{2, 1, 10.0}};
  plan.disk_degradations = {faults::DiskDegradedWindow{3, 0, 5.0, 25.0,
                                                       0.5}};
  const auto result = run_erasure(workloads::SchedulerKind::kHadoop,
                                  kDefaultBlockMiB, plan);
  auto cluster = cluster::presets::virtual20();
  const auto json = mr::job_result_json(result);
  EXPECT_NE(json.find("\"disks_per_node\":6"), std::string::npos);
  EXPECT_NE(json.find("\"disk_faults\":[{\"node\":2,\"disk\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"disk_degradations\":[{\"node\":3"),
            std::string::npos);
  EXPECT_NE(json.find("\"degraded_reads\""), std::string::npos);
}

}  // namespace
}  // namespace flexmr
