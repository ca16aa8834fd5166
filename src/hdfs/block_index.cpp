#include "hdfs/block_index.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "hdfs/replica_manager.hpp"
#include "obs/profiler.hpp"

namespace flexmr::hdfs {

namespace {

/// Calls `fn(block, run)` for each maximal run of consecutive BUs of `bus`
/// that belong to one block.
template <typename Fn>
void for_each_run(const FileLayout& layout,
                  const std::vector<BlockUnitId>& bus, Fn&& fn) {
  std::size_t begin = 0;
  while (begin < bus.size()) {
    const std::uint32_t block = layout.bus[bus[begin]].block;
    std::size_t end = begin + 1;
    while (end < bus.size() && layout.bus[bus[end]].block == block) ++end;
    fn(block, std::span<const BlockUnitId>(bus).subspan(begin, end - begin));
    begin = end;
  }
}

}  // namespace

BlockLocationIndex::BlockLocationIndex(const FileLayout& layout,
                                       std::uint32_t num_nodes)
    : layout_(&layout),
      units_(layout.blocks.size()),
      pools_(num_nodes),
      counts_(num_nodes, 0),
      taken_(layout.bus.size(), 0),
      unprocessed_(layout.bus.size()) {
  FLEXMR_PROF_SCOPE("hdfs/index_build");
  std::vector<std::uint32_t> held(num_nodes, 0);
  for (const Block& block : layout.blocks) {
    for (const NodeId node : block.replicas) {
      FLEXMR_ASSERT(node < num_nodes);
      ++held[node];
    }
  }
  for (NodeId node = 0; node < num_nodes; ++node) {
    pools_[node].blocks.reserve(held[node]);
  }
  for (const Block& block : layout.blocks) {
    const auto size = static_cast<std::uint32_t>(block.bus.size());
    FLEXMR_ASSERT_MSG(
        size > 0 && block.bus.back() + 1 - block.bus.front() == size,
        "a block's BUs must be one contiguous id range");
    units_[block.id] = {block.bus.front(), size, size};
    for (const NodeId node : block.replicas) {
      pools_[node].blocks.push_back(block.id);
      counts_[node] += size;
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

void BlockLocationIndex::debit(std::uint32_t block, std::size_t count) {
  if (count == 0) return;
  units_[block].free -= static_cast<std::uint32_t>(count);
  unprocessed_ -= count;
  for (const NodeId node : holders(block)) {
    FLEXMR_ASSERT(counts_[node] >= count);
    counts_[node] -= count;
  }
}

void BlockLocationIndex::credit(std::uint32_t block, std::size_t count) {
  units_[block].free += static_cast<std::uint32_t>(count);
  unprocessed_ += count;
  for (const NodeId node : holders(block)) {
    counts_[node] += count;
    // Rewind so take_local finds the returned units again cheaply.
    pools_[node].rewind();
  }
}

void BlockLocationIndex::mark(std::span<const BlockUnitId> run, bool taken,
                              const char* msg) {
  const char flag = taken ? 1 : 0;
  std::size_t done = 0;
  while (done < run.size() && taken_[run[done]] != flag) {
    taken_[run[done++]] = flag;
  }
  const bool ok = done == run.size();
  while (!ok && done > 0) taken_[run[--done]] = taken ? 0 : 1;
  FLEXMR_ASSERT_MSG(ok, msg);
}

std::uint32_t BlockLocationIndex::take_from(std::uint32_t block,
                                            std::uint32_t offset,
                                            std::size_t n,
                                            std::vector<BlockUnitId>& out) {
  const Units& units = units_[block];
  const std::size_t before = out.size();
  for (; offset < units.size && out.size() < n; ++offset) {
    const BlockUnitId bu = units.first + offset;
    if (taken_[bu]) continue;
    taken_[bu] = 1;
    out.push_back(bu);
  }
  debit(block, out.size() - before);
  return offset;
}

std::vector<BlockUnitId> BlockLocationIndex::take_local(NodeId node,
                                                        std::size_t n) {
  FLEXMR_ASSERT(node < pools_.size());
  std::vector<BlockUnitId> taken;
  // A dead node serves nothing.
  if (replicas_ != nullptr && !replicas_->node_alive(node)) return taken;
  taken.reserve(n);
  Pool& pool = pools_[node];
  while (taken.size() < n && pool.next < pool.blocks.size()) {
    const std::uint32_t block = pool.blocks[pool.next];
    if (available(block, node)) {
      pool.offset = take_from(block, pool.offset, n, taken);
      if (pool.offset < units_[block].size) break;  // stopped mid-block
    }
    ++pool.next;
    pool.offset = 0;
  }
  // Every free BU the node serves lies at or after its cursor: put_back, a
  // rejoin and a re-landed copy rewind it, and a newly held block joins the
  // pool's tail. So a walk that ends short has taken them all.
  FLEXMR_ASSERT(taken.size() == n || counts_[node] == 0);
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
  mark(block.bus, true, "block already (partially) taken");
  debit(block.id, block.bus.size());
}

void BlockLocationIndex::take_units(const std::vector<BlockUnitId>& bus) {
  for_each_run(*layout_, bus,
               [this](std::uint32_t block, std::span<const BlockUnitId> run) {
                 mark(run, true, "unit already taken");
                 debit(block, run.size());
               });
}

void BlockLocationIndex::put_back(const std::vector<BlockUnitId>& bus) {
  for_each_run(*layout_, bus,
               [this](std::uint32_t block, std::span<const BlockUnitId> run) {
                 mark(run, false, "cannot put back an untaken block unit");
                 credit(block, run.size());
               });
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
        pools_[node].blocks.push_back(block.id);
      }
    }
  }
  for (NodeId node = 0; node < num_nodes(); ++node) node_restored(node);
}

void BlockLocationIndex::node_lost(NodeId node) {
  // No rewind: the node serves nothing until node_restored rewinds it.
  counts_[node] = 0;
}

void BlockLocationIndex::node_restored(NodeId node) {
  std::size_t count = 0;
  for (const std::uint32_t block : pools_[node].blocks) {
    if (available(block, node)) count += units_[block].free;
  }
  counts_[node] = count;
  pools_[node].rewind();
}

void BlockLocationIndex::replica_lost(std::uint32_t block, NodeId node) {
  FLEXMR_ASSERT(counts_[node] >= units_[block].free);
  counts_[node] -= units_[block].free;
}

void BlockLocationIndex::replica_landed(std::uint32_t block, NodeId node) {
  Pool& pool = pools_[node];
  if (std::find(pool.blocks.begin(), pool.blocks.end(), block) !=
      pool.blocks.end()) {
    // The pool kept a copy a disk fault destroyed: its units count again
    // where they stand, so the scan restarts from the front.
    pool.rewind();
  } else {
    pool.blocks.push_back(block);
  }
  counts_[node] += units_[block].free;
}

}  // namespace flexmr::hdfs
