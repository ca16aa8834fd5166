#include "hdfs/block_index.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace flexmr::hdfs {

BlockLocationIndex::BlockLocationIndex(const FileLayout& layout,
                                       std::uint32_t num_nodes)
    : layout_(&layout),
      node_lists_(num_nodes),
      cursor_(num_nodes, 0),
      counts_(num_nodes, 0),
      taken_(layout.bus.size(), 0),
      active_(num_nodes, 1),
      extra_holders_(layout.blocks.size()),
      dropped_holders_(layout.blocks.size()),
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

void BlockLocationIndex::take_one(BlockUnitId bu) {
  FLEXMR_ASSERT_MSG(!taken_[bu], "block unit taken twice");
  taken_[bu] = 1;
  --unprocessed_;
  const std::uint32_t block = layout_->bus[bu].block;
  for (const NodeId node : layout_->replicas_of(bu)) {
    if (!active_[node] || holder_dropped(block, node)) continue;
    FLEXMR_ASSERT(counts_[node] > 0);
    --counts_[node];
  }
  for (const NodeId node : extra_holders_[block]) {
    if (!active_[node] || holder_dropped(block, node)) continue;
    FLEXMR_ASSERT(counts_[node] > 0);
    --counts_[node];
  }
}

std::vector<BlockUnitId> BlockLocationIndex::take_local(NodeId node,
                                                        std::size_t n) {
  FLEXMR_ASSERT(node < node_lists_.size());
  std::vector<BlockUnitId> taken;
  if (!active_[node]) return taken;  // a dead node serves nothing
  taken.reserve(n);
  auto& list = node_lists_[node];
  auto& cur = cursor_[node];
  while (taken.size() < n && cur < list.size()) {
    const BlockUnitId bu = list[cur];
    if (taken_[bu] || holder_dropped(layout_->bus[bu].block, node)) {
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
      if (!taken_[bu] && !holder_dropped(layout_->bus[bu].block, node)) {
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
    const std::uint32_t block = layout_->bus[bu].block;
    for (const NodeId node : layout_->replicas_of(bu)) {
      if (!active_[node] || holder_dropped(block, node)) continue;
      ++counts_[node];
      // Reset the scan cursor so take_local can find it again cheaply.
      cursor_[node] = 0;
    }
    for (const NodeId node : extra_holders_[block]) {
      if (!active_[node] || holder_dropped(block, node)) continue;
      ++counts_[node];
      cursor_[node] = 0;
    }
  }
}

void BlockLocationIndex::deactivate_node(NodeId node) {
  FLEXMR_ASSERT(node < node_lists_.size());
  if (!active_[node]) return;
  active_[node] = 0;
  counts_[node] = 0;
  cursor_[node] = 0;
}

void BlockLocationIndex::restore_node(NodeId node) {
  FLEXMR_ASSERT(node < node_lists_.size());
  if (active_[node]) return;
  active_[node] = 1;
  std::size_t count = 0;
  for (const BlockUnitId bu : node_lists_[node]) {
    // A disk-lost copy stays lost across the node's downtime: the rejoin
    // block report simply doesn't list it.
    if (!taken_[bu] && !holder_dropped(layout_->bus[bu].block, node)) ++count;
  }
  counts_[node] = count;
  cursor_[node] = 0;
}

void BlockLocationIndex::add_replica(const Block& block, NodeId node) {
  FLEXMR_ASSERT(node < node_lists_.size());
  FLEXMR_ASSERT_MSG(active_[node], "cannot rehost a block on a dead node");
  auto& dropped = dropped_holders_[block.id];
  const auto dropped_it = std::find(dropped.begin(), dropped.end(), node);
  if (dropped_it != dropped.end()) {
    // Repair landed back on a holder that lost this block to a disk fault:
    // its node_lists_ entries still exist, so re-arming the holder is just
    // un-dropping and recounting.
    dropped.erase(dropped_it);
    for (const BlockUnitId bu : block.bus) {
      if (!taken_[bu]) ++counts_[node];
    }
    cursor_[node] = 0;
    return;
  }
  auto& extras = extra_holders_[block.id];
  FLEXMR_ASSERT_MSG(
      std::find(extras.begin(), extras.end(), node) == extras.end() &&
          std::find(block.replicas.begin(), block.replicas.end(), node) ==
              block.replicas.end(),
      "node already holds a replica of this block");
  extras.push_back(node);
  for (const BlockUnitId bu : block.bus) {
    node_lists_[node].push_back(bu);
    if (!taken_[bu]) ++counts_[node];
  }
}

void BlockLocationIndex::drop_replica(const Block& block, NodeId node) {
  FLEXMR_ASSERT(node < node_lists_.size());
  auto& dropped = dropped_holders_[block.id];
  if (std::find(dropped.begin(), dropped.end(), node) != dropped.end()) {
    return;  // already dropped
  }
  const auto& extras = extra_holders_[block.id];
  FLEXMR_ASSERT_MSG(
      std::find(block.replicas.begin(), block.replicas.end(), node) !=
              block.replicas.end() ||
          std::find(extras.begin(), extras.end(), node) != extras.end(),
      "disk fault on a node that never held this block");
  dropped.push_back(node);
  any_dropped_ = true;
  if (!active_[node]) return;  // counts already zeroed by deactivate_node
  for (const BlockUnitId bu : block.bus) {
    if (taken_[bu]) continue;
    FLEXMR_ASSERT(counts_[node] > 0);
    --counts_[node];
  }
}

}  // namespace flexmr::hdfs
