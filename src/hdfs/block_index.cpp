#include "hdfs/block_index.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "hdfs/replica_manager.hpp"

namespace flexmr::hdfs {

BlockLocationIndex::BlockLocationIndex(const FileLayout& layout,
                                       std::uint32_t num_nodes)
    : layout_(&layout),
      node_lists_(num_nodes),
      cursor_(num_nodes, 0),
      counts_(num_nodes, 0),
      taken_(layout.bus.size(), 0),
      unprocessed_(layout.bus.size()) {
  for (const auto& bu : layout.bus) {
    for (const NodeId node : layout.replicas_of(bu.id)) {
      FLEXMR_ASSERT(node < num_nodes);
      node_lists_[node].push_back(bu.id);
      ++counts_[node];
    }
  }
}

std::size_t BlockLocationIndex::local_count(NodeId node) const {
  FLEXMR_ASSERT(node < counts_.size());
  return counts_[node];
}

const std::vector<NodeId>& BlockLocationIndex::holders(
    std::uint32_t block) const {
  return replicas_ != nullptr ? replicas_->live_holders(block)
                              : layout_->blocks[block].replicas;
}

bool BlockLocationIndex::serves(std::uint32_t block, NodeId node) const {
  const std::vector<NodeId>& nodes = holders(block);
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

void BlockLocationIndex::take_one(BlockUnitId bu) {
  FLEXMR_ASSERT_MSG(!taken_[bu], "block unit taken twice");
  taken_[bu] = 1;
  --unprocessed_;
  for (const NodeId node : holders(layout_->bus[bu].block)) {
    FLEXMR_ASSERT(counts_[node] > 0);
    --counts_[node];
  }
}

std::vector<BlockUnitId> BlockLocationIndex::take_local(NodeId node,
                                                        std::size_t n) {
  FLEXMR_ASSERT(node < node_lists_.size());
  std::vector<BlockUnitId> taken;
  // A dead node serves nothing.
  if (replicas_ != nullptr && !replicas_->node_alive(node)) return taken;
  taken.reserve(n);
  auto& list = node_lists_[node];
  auto& cur = cursor_[node];
  while (taken.size() < n && cur < list.size()) {
    const BlockUnitId bu = list[cur];
    if (taken_[bu] || !serves(layout_->bus[bu].block, node)) {
      ++cur;
      continue;
    }
    take_one(bu);
    taken.push_back(bu);
    ++cur;
  }
  // The cursor may have raced past BUs that were put_back earlier; rescan
  // from the front only if we still owe BUs and the node claims to have some.
  if (taken.size() < n && counts_[node] > 0) {
    for (std::size_t i = 0; i < list.size() && taken.size() < n; ++i) {
      const BlockUnitId bu = list[i];
      if (!taken_[bu] && serves(layout_->bus[bu].block, node)) {
        take_one(bu);
        taken.push_back(bu);
      }
    }
  }
  return taken;
}

std::vector<BlockUnitId> BlockLocationIndex::take_remote(NodeId avoid,
                                                         std::size_t n) {
  std::vector<BlockUnitId> taken;
  taken.reserve(n);
  while (taken.size() < n && unprocessed_ > 0) {
    // Paper heuristic: select remote BUs from the node with the most
    // unprocessed BUs (ties break toward the lowest node id).
    NodeId best = kInvalidNode;
    std::size_t best_count = 0;
    for (NodeId node = 0; node < counts_.size(); ++node) {
      if (node == avoid) continue;
      if (counts_[node] > best_count) {
        best_count = counts_[node];
        best = node;
      }
    }
    if (best == kInvalidNode) {
      // Everything unprocessed lives only on `avoid` — fine, it is local
      // after all; take from there.
      best = avoid;
      if (counts_[best] == 0) break;
    }
    auto chunk = take_local(best, n - taken.size());
    FLEXMR_ASSERT_MSG(!chunk.empty(), "count bookkeeping out of sync");
    taken.insert(taken.end(), chunk.begin(), chunk.end());
  }
  return taken;
}

void BlockLocationIndex::take_block(const Block& block) {
  for (const BlockUnitId bu : block.bus) {
    FLEXMR_ASSERT_MSG(!taken_[bu], "block already (partially) taken");
    take_one(bu);
  }
}

void BlockLocationIndex::take_units(const std::vector<BlockUnitId>& bus) {
  for (const BlockUnitId bu : bus) {
    FLEXMR_ASSERT_MSG(!taken_[bu], "unit already taken");
    take_one(bu);
  }
}

void BlockLocationIndex::put_back(const std::vector<BlockUnitId>& bus) {
  for (const BlockUnitId bu : bus) {
    FLEXMR_ASSERT_MSG(taken_[bu], "cannot put back an untaken block unit");
    taken_[bu] = 0;
    ++unprocessed_;
    for (const NodeId node : holders(layout_->bus[bu].block)) {
      ++counts_[node];
      // Reset the scan cursor so take_local can find it again cheaply.
      cursor_[node] = 0;
    }
  }
}

void BlockLocationIndex::attach(const ReplicaManager& replicas,
                                bool view_changed) {
  FLEXMR_ASSERT_MSG(replicas_ == nullptr, "block index already attached");
  replicas_ = &replicas;
  if (!view_changed) return;
  for (const Block& block : layout_->blocks) {
    for (const NodeId node : replicas.remembered_holders(block.id)) {
      if (std::find(block.replicas.begin(), block.replicas.end(), node) ==
          block.replicas.end()) {
        auto& list = node_lists_[node];
        list.insert(list.end(), block.bus.begin(), block.bus.end());
      }
    }
  }
  for (NodeId node = 0; node < num_nodes(); ++node) node_restored(node);
}

void BlockLocationIndex::node_lost(NodeId node) {
  counts_[node] = 0;
  cursor_[node] = 0;
}

void BlockLocationIndex::node_restored(NodeId node) {
  std::size_t count = 0;
  for (const BlockUnitId bu : node_lists_[node]) {
    if (!taken_[bu] && serves(layout_->bus[bu].block, node)) ++count;
  }
  counts_[node] = count;
  cursor_[node] = 0;
}

void BlockLocationIndex::replica_lost(std::uint32_t block, NodeId node) {
  for (const BlockUnitId bu : layout_->blocks[block].bus) {
    if (taken_[bu]) continue;
    FLEXMR_ASSERT(counts_[node] > 0);
    --counts_[node];
  }
}

void BlockLocationIndex::replica_landed(std::uint32_t block, NodeId node) {
  const Block& landed = layout_->blocks[block];
  auto& list = node_lists_[node];
  if (std::find(list.begin(), list.end(), landed.bus.front()) != list.end()) {
    // The pool kept the units of a copy a disk fault destroyed: they count
    // again where they stand, so the scan restarts from the front.
    cursor_[node] = 0;
  } else {
    list.insert(list.end(), landed.bus.begin(), landed.bus.end());
  }
  for (const BlockUnitId bu : landed.bus) {
    if (!taken_[bu]) ++counts_[node];
  }
}

}  // namespace flexmr::hdfs
