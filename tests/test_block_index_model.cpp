// Differential test of BlockLocationIndex against a per-BU reference model.
//
// The reference keeps one pool entry per (BU, holder) and walks it BU by
// BU: the plainest statement of the take order late task binding relies
// on (ascending BU within a block, pool order across blocks, landed copies
// and a changed view's extra holders appended, one cursor per node that
// put_back, node loss, rejoin and a re-landed copy reset, and a rescan
// from the front when the cursor walk falls short). Seeded random op
// sequences drive both through one ReplicaManager, and after every op the
// returned BU lists, every node's local_count, unprocessed() and every
// taken flag must match.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "hdfs/block_index.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/replica_manager.hpp"
#include "simcore/simulator.hpp"

namespace flexmr::hdfs {
namespace {

class ReferenceIndex {
 public:
  ReferenceIndex(const FileLayout& layout, std::uint32_t num_nodes)
      : layout_(&layout),
        lists_(num_nodes),
        cursor_(num_nodes, 0),
        counts_(num_nodes, 0),
        taken_(layout.bus.size(), 0),
        unprocessed_(layout.bus.size()) {
    for (const BlockUnit& bu : layout.bus) {
      for (const NodeId node : layout.replicas_of(bu.id)) {
        lists_[node].push_back(bu.id);
        ++counts_[node];
      }
    }
  }

  std::size_t unprocessed() const { return unprocessed_; }
  std::size_t local_count(NodeId node) const { return counts_[node]; }
  bool taken(BlockUnitId bu) const { return taken_[bu] != 0; }

  std::vector<BlockUnitId> take_local(NodeId node, std::size_t n) {
    std::vector<BlockUnitId> out;
    if (replicas_ != nullptr && !replicas_->node_alive(node)) return out;
    auto& list = lists_[node];
    auto& cur = cursor_[node];
    for (; out.size() < n && cur < list.size(); ++cur) {
      if (available(list[cur], node)) take_one(list[cur], out);
    }
    if (out.size() < n && counts_[node] > 0) {
      for (std::size_t i = 0; i < list.size() && out.size() < n; ++i) {
        if (available(list[i], node)) take_one(list[i], out);
      }
    }
    return out;
  }

  std::vector<BlockUnitId> take_remote(NodeId avoid, std::size_t n) {
    std::vector<BlockUnitId> out;
    while (out.size() < n && unprocessed_ > 0) {
      NodeId best = kInvalidNode;
      std::size_t best_count = 0;
      for (NodeId node = 0; node < counts_.size(); ++node) {
        if (node != avoid && counts_[node] > best_count) {
          best_count = counts_[node];
          best = node;
        }
      }
      if (best == kInvalidNode) {
        best = avoid;
        if (counts_[best] == 0) break;
      }
      const auto chunk = take_local(best, n - out.size());
      if (chunk.empty()) throw InvariantError("reference out of sync");
      out.insert(out.end(), chunk.begin(), chunk.end());
    }
    return out;
  }

  void take_units(const std::vector<BlockUnitId>& bus) {
    std::vector<BlockUnitId> sink;
    for (const BlockUnitId bu : bus) take_one(bu, sink);
  }

  void put_back(const std::vector<BlockUnitId>& bus) {
    for (const BlockUnitId bu : bus) {
      taken_[bu] = 0;
      ++unprocessed_;
      for (const NodeId node : holders(layout_->bus[bu].block)) {
        ++counts_[node];
        cursor_[node] = 0;
      }
    }
  }

  void attach(const ReplicaManager& replicas, bool view_changed) {
    replicas_ = &replicas;
    if (!view_changed) return;
    for (const Block& block : layout_->blocks) {
      for (const NodeId node : replicas.remembered_holders(block.id)) {
        if (std::find(block.replicas.begin(), block.replicas.end(), node) ==
            block.replicas.end()) {
          lists_[node].insert(lists_[node].end(), block.bus.begin(),
                              block.bus.end());
        }
      }
    }
    for (NodeId node = 0; node < lists_.size(); ++node) node_restored(node);
  }

  void node_lost(NodeId node) {
    counts_[node] = 0;
    cursor_[node] = 0;
  }

  void node_restored(NodeId node) {
    std::size_t count = 0;
    for (const BlockUnitId bu : lists_[node]) {
      if (available(bu, node)) ++count;
    }
    counts_[node] = count;
    cursor_[node] = 0;
  }

  void replica_lost(std::uint32_t block, NodeId node) {
    for (const BlockUnitId bu : layout_->blocks[block].bus) {
      if (!taken_[bu]) --counts_[node];
    }
  }

  void replica_landed(std::uint32_t block, NodeId node) {
    const Block& landed = layout_->blocks[block];
    auto& list = lists_[node];
    if (std::find(list.begin(), list.end(), landed.bus.front()) !=
        list.end()) {
      cursor_[node] = 0;
    } else {
      list.insert(list.end(), landed.bus.begin(), landed.bus.end());
    }
    for (const BlockUnitId bu : landed.bus) {
      if (!taken_[bu]) ++counts_[node];
    }
  }

 private:
  const std::vector<NodeId>& holders(std::uint32_t block) const {
    return replicas_ != nullptr ? replicas_->live_holders(block)
                                : layout_->blocks[block].replicas;
  }

  bool available(BlockUnitId bu, NodeId node) const {
    if (taken_[bu]) return false;
    const auto& nodes = holders(layout_->bus[bu].block);
    return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
  }

  void take_one(BlockUnitId bu, std::vector<BlockUnitId>& out) {
    if (taken_[bu]) throw InvariantError("reference: BU taken twice");
    taken_[bu] = 1;
    --unprocessed_;
    for (const NodeId node : holders(layout_->bus[bu].block)) {
      if (counts_[node] == 0) throw InvariantError("reference underflow");
      --counts_[node];
    }
    out.push_back(bu);
  }

  const FileLayout* layout_;
  const ReplicaManager* replicas_ = nullptr;
  std::vector<std::vector<BlockUnitId>> lists_;
  std::vector<std::size_t> cursor_;
  std::vector<std::size_t> counts_;
  std::vector<char> taken_;
  std::size_t unprocessed_ = 0;
};

struct ModelCase {
  const char* name;
  std::uint32_t nodes;
  StoragePolicy storage;
};

void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.name; }

/// One random op sequence: the real index and the reference side by side,
/// both attached to (or following) one ReplicaManager.
class Harness {
 public:
  static constexpr std::uint32_t kDisks = 4;

  Harness(const ModelCase& c, std::uint64_t seed)
      : nodes_(c.nodes),
        rng_(seed),
        layout_(NameNode(c.nodes, PlacementPolicy::kRandom, Rng(seed ^ 0x5a5a))
                    .create_file(64.0 * 40 - 20.0, 64.0, 3, kBlockUnitMiB,
                                 c.storage)),
        mgr_(layout_, c.nodes) {
    mgr_.enable_re_replication(sim_, 64.0);
    mgr_.set_copy_complete_handler([this](std::uint32_t block, NodeId node) {
      view_changed_ = true;
      ref_->replica_landed(block, node);
    });
    fresh_pair();
  }

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      ASSERT_NO_FATAL_FAILURE(step(op));
      ASSERT_NO_FATAL_FAILURE(compare());
    }
  }

 private:
  void fresh_pair() {
    index_ = std::make_unique<BlockLocationIndex>(layout_, nodes_);
    ref_ = std::make_unique<ReferenceIndex>(layout_, nodes_);
    mgr_.attach(*index_);
    ref_->attach(mgr_, view_changed_);
  }

  NodeId any_node() {
    return static_cast<NodeId>(rng_.uniform_int(nodes_));
  }

  std::vector<BlockUnitId> untaken() const {
    std::vector<BlockUnitId> out;
    for (BlockUnitId bu = 0; bu < layout_.bus.size(); ++bu) {
      if (!index_->taken(bu)) out.push_back(bu);
    }
    return out;
  }

  void bind(std::vector<BlockUnitId> bus) {
    if (!bus.empty()) running_.push_back(std::move(bus));
  }

  void step(int op) {
    const std::uint64_t roll = rng_.uniform_int(100);
    last_ = "op " + std::to_string(op) + " roll " + std::to_string(roll);
    if (roll < 28) {
      const NodeId node = any_node();
      const std::size_t n = 1 + rng_.uniform_int(12);
      auto got = index_->take_local(node, n);
      ASSERT_EQ(got, ref_->take_local(node, n)) << last_;
      bind(std::move(got));
    } else if (roll < 40) {
      const NodeId node = any_node();
      const std::size_t n = 1 + rng_.uniform_int(12);
      auto got = index_->take_remote(node, n);
      ASSERT_EQ(got, ref_->take_remote(node, n)) << last_;
      bind(std::move(got));
    } else if (roll < 47) {
      // A chunk list as SkewTune plans one: a run of free units, which
      // may cross into the next block.
      const auto free = untaken();
      if (free.empty()) return;
      const std::size_t at = rng_.uniform_int(free.size());
      const std::size_t len = std::min<std::size_t>(
          free.size() - at, 1 + rng_.uniform_int(12));
      std::vector<BlockUnitId> bus(free.begin() + static_cast<long>(at),
                                   free.begin() + static_cast<long>(at + len));
      index_->take_units(bus);
      ref_->take_units(bus);
      bind(std::move(bus));
    } else if (roll < 52) {
      std::vector<std::uint32_t> whole;
      for (const Block& block : layout_.blocks) {
        const auto taken = [this](BlockUnitId bu) {
          return index_->taken(bu);
        };
        if (std::none_of(block.bus.begin(), block.bus.end(), taken)) {
          whole.push_back(block.id);
        }
      }
      if (whole.empty()) return;
      const Block& block =
          layout_.blocks[whole[rng_.uniform_int(whole.size())]];
      index_->take_block(block);
      ref_->take_units(block.bus);
      bind(block.bus);
    } else if (roll < 64) {
      // A task dies (everything returns) or is killed after reading a
      // prefix (its unread suffix returns, the prefix is done).
      if (running_.empty()) return;
      const std::size_t pick = rng_.uniform_int(running_.size());
      auto task = std::move(running_[pick]);
      running_.erase(running_.begin() + static_cast<long>(pick));
      const std::size_t keep = rng_.uniform_int(task.size());
      const std::vector<BlockUnitId> back(
          task.begin() + static_cast<long>(keep), task.end());
      done_.emplace_back(task.begin(), task.begin() + static_cast<long>(keep));
      index_->put_back(back);
      ref_->put_back(back);
    } else if (roll < 72) {
      if (running_.empty()) return;
      const std::size_t pick = rng_.uniform_int(running_.size());
      done_.push_back(std::move(running_[pick]));
      running_.erase(running_.begin() + static_cast<long>(pick));
    } else if (roll < 77) {
      const NodeId node = any_node();
      if (mgr_.node_alive(node)) view_changed_ = true;
      mgr_.on_node_lost(node);
      ref_->node_lost(node);
    } else if (roll < 83) {
      const NodeId node = any_node();
      const bool was_dead = !mgr_.node_alive(node);
      mgr_.on_node_restored(node);
      if (was_dead) ref_->node_restored(node);
    } else if (roll < 87) {
      const NodeId node = any_node();
      const auto disk = static_cast<std::uint32_t>(rng_.uniform_int(kDisks));
      view_changed_ = true;
      for (const std::uint32_t block :
           mgr_.on_disk_lost(node, disk, kDisks).lost) {
        ref_->replica_lost(block, node);
      }
    } else if (roll < 95) {
      sim_.step();  // a landed repair copy, if one is in flight
    } else if (roll < 97) {
      // The AM restarts: a successor's fresh index attaches to the
      // manager, and the work its predecessor committed is taken again.
      running_.clear();
      fresh_pair();
      for (const auto& bus : done_) {
        index_->take_units(bus);
        ref_->take_units(bus);
      }
    } else {
      // Invalid requests throw before changing anything.
      const auto free = untaken();
      if (!free.empty()) {
        const BlockUnitId bu = free[rng_.uniform_int(free.size())];
        EXPECT_THROW(index_->put_back({bu}), InvariantError) << last_;
      }
      for (const Block& block : layout_.blocks) {
        if (!index_->taken(block.bus.front())) continue;
        EXPECT_THROW(index_->take_units({block.bus.front()}), InvariantError)
            << last_;
        EXPECT_THROW(index_->take_block(block), InvariantError) << last_;
        break;
      }
    }
  }

  void compare() const {
    ASSERT_EQ(index_->unprocessed(), ref_->unprocessed()) << last_;
    for (NodeId node = 0; node < nodes_; ++node) {
      ASSERT_EQ(index_->local_count(node), ref_->local_count(node))
          << last_ << ", node " << node;
    }
    for (BlockUnitId bu = 0; bu < layout_.bus.size(); ++bu) {
      ASSERT_EQ(index_->taken(bu), ref_->taken(bu)) << last_ << ", BU " << bu;
    }
  }

  std::uint32_t nodes_;
  Rng rng_;
  FileLayout layout_;
  Simulator sim_;
  ReplicaManager mgr_;
  std::unique_ptr<BlockLocationIndex> index_;
  std::unique_ptr<ReferenceIndex> ref_;
  bool view_changed_ = false;
  std::vector<std::vector<BlockUnitId>> running_;
  std::vector<std::vector<BlockUnitId>> done_;
  std::string last_;
};

class BlockIndexModel : public ::testing::TestWithParam<ModelCase> {};

TEST_P(BlockIndexModel, MatchesPerUnitReferenceOnRandomOps) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Harness harness(GetParam(), seed);
    ASSERT_NO_FATAL_FAILURE(harness.run(1500));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Storage, BlockIndexModel,
    // On three nodes every node holds every block, so a repair can land
    // only on a node whose copy a disk fault destroyed: the copy returns
    // to the pool entry it left.
    ::testing::Values(ModelCase{"Rep3", 7, StoragePolicy{}},
                      ModelCase{"Rep3OnThreeNodes", 3, StoragePolicy{}},
                      ModelCase{"Rs63", 12, StoragePolicy::rs(6, 3)}),
    [](const ::testing::TestParamInfo<ModelCase>& param) {
      return std::string(param.param.name);
    });

// A copy that repair lands back on a node whose disk fault destroyed it
// counts again at its old pool entry, behind the node's cursor: the node's
// next walk starts from the front and takes it first.
TEST(BlockIndexModelScripted, RelandedCopyBehindTheCursorIsTakenFirst) {
  const FileLayout layout = NameNode(3, PlacementPolicy::kRandom, Rng(7))
                                .create_file(64.0 * 12, 64.0, 3);
  BlockLocationIndex index(layout, 3);
  ReferenceIndex ref(layout, 3);
  Simulator sim;
  ReplicaManager mgr(layout, 3);
  mgr.enable_re_replication(sim, 64.0);
  mgr.attach(index);
  ref.attach(mgr, false);
  mgr.set_copy_complete_handler(
      [&ref](std::uint32_t block, NodeId node) {
        ref.replica_landed(block, node);
      });
  const NodeId lost_on = 0;
  const NodeId reader = 1;
  const auto task = index.take_local(reader, 8);  // block 0, still running
  ASSERT_EQ(task, ref.take_local(reader, 8));
  ASSERT_EQ(layout.bus[task.front()].block, 0u);
  const std::uint32_t disk = ReplicaManager::disk_of(0, lost_on, 4);
  for (const std::uint32_t block : mgr.on_disk_lost(lost_on, disk, 4).lost) {
    ref.replica_lost(block, lost_on);
  }
  // The cursor moves past block 0, which the node no longer serves.
  ASSERT_EQ(index.take_local(lost_on, 4), ref.take_local(lost_on, 4));
  // Block 0 returns while its copy on `lost_on` is gone, then lands again.
  index.put_back(task);
  ref.put_back(task);
  while (sim.step()) {
  }
  ASSERT_TRUE(mgr.holds_live(0, lost_on));
  const auto taken = index.take_local(lost_on, 12);
  EXPECT_EQ(taken, ref.take_local(lost_on, 12));
  ASSERT_FALSE(taken.empty());
  EXPECT_EQ(layout.bus[taken.front()].block, 0u);
}

}  // namespace
}  // namespace flexmr::hdfs
