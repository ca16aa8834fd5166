// HDFS substrate: file layout creation and the BlockLocationIndex
// exactly-once invariants that late task binding depends on.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "hdfs/block_index.hpp"
#include "hdfs/namenode.hpp"

namespace flexmr::hdfs {
namespace {

NameNode make_namenode(std::uint32_t nodes,
                       PlacementPolicy policy = PlacementPolicy::kRandom) {
  return NameNode(nodes, policy, Rng(1234));
}

TEST(NameNode, SplitsFileIntoBlocksAndBus) {
  auto nn = make_namenode(10);
  const auto layout = nn.create_file(640.0, 64.0, 3, 8.0);
  EXPECT_EQ(layout.blocks.size(), 10u);
  EXPECT_EQ(layout.bus.size(), 80u);
  for (const auto& block : layout.blocks) {
    EXPECT_EQ(block.bus.size(), 8u);
  }
}

TEST(NameNode, LastBuMayBePartial) {
  auto nn = make_namenode(5);
  const auto layout = nn.create_file(20.0, 64.0, 3, 8.0);
  ASSERT_EQ(layout.bus.size(), 3u);
  EXPECT_DOUBLE_EQ(layout.bus[0].size, 8.0);
  EXPECT_DOUBLE_EQ(layout.bus[1].size, 8.0);
  EXPECT_DOUBLE_EQ(layout.bus[2].size, 4.0);
  double total = 0;
  for (const auto& bu : layout.bus) total += bu.size;
  EXPECT_DOUBLE_EQ(total, 20.0);
}

TEST(NameNode, ReplicasAreDistinctNodes) {
  auto nn = make_namenode(10);
  const auto layout = nn.create_file(6400.0, 64.0, 3, 8.0);
  for (const auto& block : layout.blocks) {
    ASSERT_EQ(block.replicas.size(), 3u);
    std::set<NodeId> distinct(block.replicas.begin(), block.replicas.end());
    EXPECT_EQ(distinct.size(), 3u);
    for (const NodeId node : block.replicas) EXPECT_LT(node, 10u);
  }
}

TEST(NameNode, ReplicationClampsToClusterSize) {
  auto nn = make_namenode(2);
  const auto layout = nn.create_file(64.0, 64.0, 3, 8.0);
  EXPECT_EQ(layout.replication, 2u);
  EXPECT_EQ(layout.blocks[0].replicas.size(), 2u);
}

TEST(NameNode, BusInheritParentBlockReplicas) {
  auto nn = make_namenode(8);
  const auto layout = nn.create_file(1280.0, 64.0, 3, 8.0);
  for (const auto& bu : layout.bus) {
    EXPECT_EQ(layout.replicas_of(bu.id), layout.blocks[bu.block].replicas);
  }
}

TEST(NameNode, RoundRobinPlacementIsEven) {
  auto nn = make_namenode(4, PlacementPolicy::kRoundRobin);
  const auto layout = nn.create_file(64.0 * 8, 64.0, 2, 8.0);
  std::vector<int> count(4, 0);
  for (const auto& block : layout.blocks) {
    for (const NodeId node : block.replicas) ++count[node];
  }
  for (const int c : count) EXPECT_EQ(c, 4);  // 8 blocks * 2 replicas / 4
}

TEST(NameNode, RandomPlacementCoversAllNodes) {
  auto nn = make_namenode(10);
  const auto layout = nn.create_file(64.0 * 100, 64.0, 3, 8.0);
  std::set<NodeId> seen;
  for (const auto& block : layout.blocks) {
    seen.insert(block.replicas.begin(), block.replicas.end());
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(NameNode, SameSeedSameLayout) {
  auto nn1 = NameNode(10, PlacementPolicy::kRandom, Rng(99));
  auto nn2 = NameNode(10, PlacementPolicy::kRandom, Rng(99));
  const auto a = nn1.create_file(640.0, 64.0, 3, 8.0);
  const auto b = nn2.create_file(640.0, 64.0, 3, 8.0);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].replicas, b.blocks[i].replicas);
  }
}

TEST(NameNode, TotalWorkMatchesCostWeightedSize) {
  auto nn = make_namenode(4);
  auto layout = nn.create_file(80.0, 64.0, 2, 8.0);
  for (auto& bu : layout.bus) bu.cost = 2.0;
  EXPECT_DOUBLE_EQ(layout.total_work(), 160.0);
}

/// FNV-1a over every block's id, BU range and replica list.
std::uint64_t layout_hash(const FileLayout& layout, std::uint64_t hash) {
  const auto mix = [&hash](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  };
  mix(layout.blocks.size());
  mix(layout.bus.size());
  for (const Block& block : layout.blocks) {
    mix(block.id);
    mix(block.bus.front());
    mix(block.bus.size());
    mix(block.replicas.size());
    for (const NodeId node : block.replicas) mix(node);
  }
  return hash;
}

struct PlacementCase {
  std::uint32_t nodes;
  const char* policy;
  std::uint64_t expected;
};

// Captured while placement still refilled an O(nodes) pool per block; any
// change to which nodes a block lands on, or to how many draws a block
// consumes, moves them. The clamp case (replication > nodes) hashes a
// second, replication-3 file from the same NameNode, so the draws the
// clamped file consumed are pinned too.
constexpr PlacementCase kPlacementCases[] = {
    {39, "rep3", 0xce76f6087f402421ull},
    {39, "rs6.3", 0xfe369f53daf017d7ull},
    {39, "clamp", 0xff83f391d9631dffull},
    {600, "rep3", 0x79a551638022643eull},
    {600, "rs6.3", 0x4f7dc8343b24ab5eull},
    {600, "clamp", 0x75adff0db0fb799bull},
    {10000, "rep3", 0xbe6946eaee93dcbbull},
    {10000, "rs6.3", 0xd94d05e7c3f04bf0ull},
    {10000, "clamp", 0x25479e67eb9977f6ull},
};

TEST(NameNode, RandomPlacementMatchesPinnedHashes) {
  for (const PlacementCase& c : kPlacementCases) {
    NameNode nn(c.nodes, PlacementPolicy::kRandom, Rng(c.nodes * 31 + 5));
    const std::string policy = c.policy;
    std::uint64_t hash = 1469598103934665603ull;
    if (policy == "rep3") {
      hash = layout_hash(nn.create_file(64.0 * 2000, 64.0, 3), hash);
    } else if (policy == "rs6.3") {
      hash = layout_hash(nn.create_file(64.0 * 2000, 64.0, 3, kBlockUnitMiB,
                                        StoragePolicy::rs(6, 3)),
                         hash);
    } else {
      const auto clamped = nn.create_file(64.0 * 5, 64.0, c.nodes + 4);
      for (const Block& block : clamped.blocks) {
        ASSERT_EQ(block.replicas.size(), c.nodes);
      }
      hash = layout_hash(clamped, hash);
      hash = layout_hash(nn.create_file(64.0 * 200, 64.0, 3), hash);
    }
    EXPECT_EQ(hash, c.expected)
        << c.nodes << " nodes, " << c.policy << ": got 0x" << std::hex
        << hash;
  }
}

class BlockIndexTest : public ::testing::Test {
 protected:
  BlockIndexTest()
      : nn_(NameNode(6, PlacementPolicy::kRandom, Rng(7))),
        layout_(nn_.create_file(64.0 * 12, 64.0, 3, 8.0)),
        index_(layout_, 6) {}

  NameNode nn_;
  FileLayout layout_;
  BlockLocationIndex index_;
};

TEST_F(BlockIndexTest, InitialCountsMatchLayout) {
  EXPECT_EQ(index_.unprocessed(), layout_.bus.size());
  std::size_t sum = 0;
  for (NodeId node = 0; node < 6; ++node) sum += index_.local_count(node);
  EXPECT_EQ(sum, layout_.bus.size() * 3);  // replication 3
}

TEST_F(BlockIndexTest, TakeLocalReturnsOnlyLocalBus) {
  const auto taken = index_.take_local(2, 5);
  EXPECT_LE(taken.size(), 5u);
  for (const BlockUnitId bu : taken) {
    const auto& replicas = layout_.replicas_of(bu);
    EXPECT_NE(std::find(replicas.begin(), replicas.end(), NodeId{2}),
              replicas.end());
    EXPECT_TRUE(index_.taken(bu));
  }
}

TEST_F(BlockIndexTest, TakingRemovesFromAllReplicaHolders) {
  const auto before0 = index_.local_count(0);
  const auto taken = index_.take_local(0, 1);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(index_.local_count(0), before0 - 1);
  for (const NodeId node : layout_.replicas_of(taken[0])) {
    // Every holder's count dropped by exactly the units it held.
    EXPECT_LE(index_.local_count(node), layout_.bus.size() * 3);
  }
  EXPECT_EQ(index_.unprocessed(), layout_.bus.size() - 1);
}

TEST_F(BlockIndexTest, NoBuTakenTwiceAcrossExhaustiveDraining) {
  std::set<BlockUnitId> seen;
  NodeId node = 0;
  while (index_.unprocessed() > 0) {
    auto taken = index_.take_local(node, 3);
    if (taken.empty()) taken = index_.take_remote(node, 3);
    ASSERT_FALSE(taken.empty());
    for (const BlockUnitId bu : taken) {
      EXPECT_TRUE(seen.insert(bu).second) << "BU " << bu << " taken twice";
    }
    node = (node + 1) % 6;
  }
  EXPECT_EQ(seen.size(), layout_.bus.size());
}

TEST_F(BlockIndexTest, TakeRemotePrefersNodeWithMostUnprocessed) {
  // Drain node 0 completely, then a remote request avoiding node 0 must
  // still succeed and unprocessed counts must stay consistent.
  while (index_.local_count(0) > 0) index_.take_local(0, 8);
  const auto before = index_.unprocessed();
  const auto taken = index_.take_remote(0, 4);
  EXPECT_EQ(taken.size(), std::min<std::size_t>(4, before));
  EXPECT_EQ(index_.unprocessed(), before - taken.size());
}

TEST_F(BlockIndexTest, TakeBlockTakesExactlyItsBus) {
  const auto& block = layout_.blocks[3];
  index_.take_block(block);
  for (const BlockUnitId bu : block.bus) EXPECT_TRUE(index_.taken(bu));
  EXPECT_EQ(index_.unprocessed(), layout_.bus.size() - block.bus.size());
}

TEST_F(BlockIndexTest, DoubleTakeBlockThrows) {
  index_.take_block(layout_.blocks[0]);
  EXPECT_THROW(index_.take_block(layout_.blocks[0]), InvariantError);
}

TEST_F(BlockIndexTest, PutBackRestoresAvailability) {
  auto taken = index_.take_local(1, 4);
  ASSERT_FALSE(taken.empty());
  const auto before = index_.unprocessed();
  index_.put_back(taken);
  EXPECT_EQ(index_.unprocessed(), before + taken.size());
  for (const BlockUnitId bu : taken) EXPECT_FALSE(index_.taken(bu));
  // And they can be re-taken (by a different node holding replicas).
  index_.take_units(taken);
  for (const BlockUnitId bu : taken) EXPECT_TRUE(index_.taken(bu));
}

TEST_F(BlockIndexTest, PutBackUntakenThrows) {
  EXPECT_THROW(index_.put_back({0}), InvariantError);
}

TEST_F(BlockIndexTest, TakeUnitsOnTakenThrows) {
  auto taken = index_.take_local(0, 1);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_THROW(index_.take_units(taken), InvariantError);
}

TEST_F(BlockIndexTest, ExhaustedIndexReturnsEmpty) {
  NodeId node = 0;
  while (index_.unprocessed() > 0) {
    if (index_.take_remote(node, 16).empty()) break;
  }
  EXPECT_EQ(index_.unprocessed(), 0u);
  EXPECT_TRUE(index_.take_local(0, 1).empty());
  EXPECT_TRUE(index_.take_remote(0, 1).empty());
}

}  // namespace
}  // namespace flexmr::hdfs
