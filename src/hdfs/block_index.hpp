// BlockLocationIndex — the NodeToBlock / BlockToNode bookkeeping that late
// task binding maintains in the AppMaster (paper §III-C).
//
// The index tracks which BUs of a job are still unprocessed and where their
// replicas live. Taking a BU for a task removes it from every replica
// holder's list, guaranteeing exactly-once processing. The stock scheduler
// uses the same index at block granularity (take_block), so the invariant
// holds uniformly across schedulers.
//
// Determinism: per-node BU lists are stored in placement order and consumed
// through a cursor, so iteration never depends on hash ordering.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/units.hpp"
#include "hdfs/block.hpp"

namespace flexmr::hdfs {

class BlockLocationIndex {
 public:
  BlockLocationIndex(const FileLayout& layout, std::uint32_t num_nodes);

  /// Total BUs still unprocessed.
  std::size_t unprocessed() const { return unprocessed_; }

  /// Unprocessed BUs with a replica on `node` (the NodeToBlock view).
  std::size_t local_count(NodeId node) const;

  bool taken(BlockUnitId bu) const { return taken_[bu]; }

  /// Takes up to `n` BUs local to `node`, in stored order. May return fewer
  /// (including zero) when the node holds fewer unprocessed replicas.
  std::vector<BlockUnitId> take_local(NodeId node, std::size_t n);

  /// Takes up to `n` BUs following the paper's remote heuristic: repeatedly
  /// pick the node (≠ `avoid`) with the most unprocessed BUs and take from
  /// it. Returns fewer only when the file is exhausted.
  std::vector<BlockUnitId> take_remote(NodeId avoid, std::size_t n);

  /// Takes the specific BU set of one block (stock Hadoop's one-map-per-
  /// block binding). All of the block's BUs must still be unprocessed.
  void take_block(const Block& block);

  /// Takes an explicit BU list (SkewTune re-takes the chunks of a killed
  /// straggler it planned). All must be unprocessed.
  void take_units(const std::vector<BlockUnitId>& bus);

  /// Puts BUs back (SkewTune returns a killed straggler's unread suffix to
  /// the pool so mitigation tasks can re-take it).
  void put_back(const std::vector<BlockUnitId>& bus);

  // ---- live replica view (data-plane fault tolerance) -------------------
  //
  // When a node is declared lost its replicas stop being takeable: the
  // node's local pool shrinks to zero and take/put bookkeeping skips it.
  // A rejoin restores the pool; re-replication grows another node's pool
  // by the rehosted block's unprocessed BUs. With no deactivations the
  // index behaves byte-identically to the static layout view.

  /// Drop `node` from the live view: its local pool empties and replica
  /// counting ignores it until restore_node.
  void deactivate_node(NodeId node);

  /// Re-admit `node` (rejoin block report): its local pool is recounted
  /// from its placement-order list.
  void restore_node(NodeId node);

  /// A re-replication copy (or reconstructed erasure part) of `block`
  /// landed on `node`: the block's BUs join the node's local pool. If the
  /// node previously lost its copy of this block to a disk fault
  /// (drop_replica), the repair re-arms that holder instead of adding a
  /// duplicate entry.
  void add_replica(const Block& block, NodeId node);

  /// A single-disk fault destroyed `node`'s copy/part of `block` while the
  /// node stayed alive: only that one block leaves the node's local pool
  /// (deactivate_node removes all of them). Idempotent; `node` must hold
  /// the block. The drop persists across deactivate/restore cycles — the
  /// data is gone until a repair lands (add_replica).
  void drop_replica(const Block& block, NodeId node);

  /// True when `node`'s copy of `block` was destroyed by drop_replica and
  /// has not been repaired since.
  bool holder_dropped(std::uint32_t block, NodeId node) const {
    if (!any_dropped_) return false;
    const auto& dropped = dropped_holders_[block];
    return std::find(dropped.begin(), dropped.end(), node) != dropped.end();
  }

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(node_lists_.size());
  }

 private:
  void take_one(BlockUnitId bu);

  const FileLayout* layout_;
  std::vector<std::vector<BlockUnitId>> node_lists_;  // placement order
  std::vector<std::size_t> cursor_;                   // per-node scan cursor
  std::vector<std::size_t> counts_;                   // per-node unprocessed
  std::vector<char> taken_;
  std::vector<char> active_;
  /// Re-replication targets per block, beyond the layout's replica set.
  std::vector<std::vector<NodeId>> extra_holders_;
  /// Holders whose copy of a block was destroyed by a disk fault while the
  /// node stayed alive (drop_replica). Checked on every take/put only once
  /// any_dropped_ flips, so the default path stays branch-cheap.
  std::vector<std::vector<NodeId>> dropped_holders_;
  bool any_dropped_ = false;
  std::size_t unprocessed_ = 0;
};

}  // namespace flexmr::hdfs
