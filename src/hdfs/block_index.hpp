// BlockLocationIndex — the NodeToBlock / BlockToNode bookkeeping that late
// task binding maintains in the AppMaster (paper §III-C).
//
// The index tracks which BUs of a job are still unprocessed and where their
// replicas live. Taking a BU for a task removes it from every replica
// holder's list, guaranteeing exactly-once processing. The stock scheduler
// uses the same index at block granularity (take_block), so the invariant
// holds uniformly across schedulers.
//
// Each node's pool lists the blocks it holds, one entry per block in
// placement order; a block's BUs are a contiguous id range taken in
// ascending order, and the block keeps a count of its unprocessed BUs, so
// a walk skips a spent or unserved block in one step. Pools are consumed
// through a per-node cursor, so iteration never depends on hash ordering.
//
// Which nodes serve a block is the NameNode's answer, not the index's: once
// attached to a ReplicaManager the index reads a block's live holders from
// it, and the manager keeps the local pools in step as nodes die and
// rejoin, disks fail and repairs land. With no manager attached (a run
// without faults) the static layout is the view.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "hdfs/block.hpp"

namespace flexmr::hdfs {

class ReplicaManager;

class BlockLocationIndex {
 public:
  BlockLocationIndex(const FileLayout& layout, std::uint32_t num_nodes);
  // The attached ReplicaManager holds this index's address.
  BlockLocationIndex(const BlockLocationIndex&) = delete;
  BlockLocationIndex& operator=(const BlockLocationIndex&) = delete;

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

  /// True when `node` serves `block` from its own disk: a live holder in
  /// the attached ReplicaManager's view, or a layout holder when none is.
  bool serves(std::uint32_t block, NodeId node) const;

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(pools_.size());
  }

 private:
  // Pool upkeep. The ReplicaManager this index is attached to owns replica
  // liveness and calls these after each change to its live view.
  friend class ReplicaManager;

  /// Starts reading holders from `replicas`. When its view has left the
  /// layout, copies that repair landed join their holders' pools (per
  /// node in ascending block id) and every pool is recounted.
  void attach(const ReplicaManager& replicas, bool view_changed);
  /// The node died: its pool serves nothing until node_restored.
  void node_lost(NodeId node);
  /// The node's block report: its pool is recounted.
  void node_restored(NodeId node);
  /// A disk fault destroyed the node's copy of `block`.
  void replica_lost(std::uint32_t block, NodeId node);
  /// A repair copy of `block` landed on `node`. A block the pool still
  /// lists (its copy was lost to a disk) counts again; any other joins the
  /// end of the pool.
  void replica_landed(std::uint32_t block, NodeId node);

  /// One block's BUs: ids [first, first + size), `free` of them
  /// unprocessed.
  struct Units {
    BlockUnitId first = 0;
    std::uint32_t size = 0;
    std::uint32_t free = 0;
  };
  /// A node's local pool: the blocks it holds in placement order, and the
  /// scan cursor — the BU at `offset` within the block at `next`.
  struct Pool {
    std::vector<std::uint32_t> blocks;
    std::size_t next = 0;
    std::uint32_t offset = 0;

    void rewind() {
      next = 0;
      offset = 0;
    }
  };

  const std::vector<NodeId>& holders(std::uint32_t block) const;
  /// `node` can take a BU of `block` now.
  bool available(std::uint32_t block, NodeId node) const {
    return units_[block].free > 0 && serves(block, node);
  }
  /// Takes `block`'s free BUs from `offset` on until `out` holds `n`;
  /// returns the offset past the last BU looked at.
  std::uint32_t take_from(std::uint32_t block, std::uint32_t offset,
                          std::size_t n, std::vector<BlockUnitId>& out);
  /// Sets the taken flag of every BU of `run` to `taken`, or throws with
  /// `msg` and no flag changed when one of them already holds it.
  void mark(std::span<const BlockUnitId> run, bool taken, const char* msg);
  /// `count` BUs of `block` were taken (debit) or put back (credit): the
  /// block's free count, every live holder's count and `unprocessed_`
  /// move by `count`, and a credit rewinds each holder's cursor.
  void debit(std::uint32_t block, std::size_t count);
  void credit(std::uint32_t block, std::size_t count);

  const FileLayout* layout_;
  const ReplicaManager* replicas_ = nullptr;
  std::vector<Units> units_;         // per block
  std::vector<Pool> pools_;          // per node
  std::vector<std::size_t> counts_;  // per node: unprocessed BUs it serves
  std::vector<char> taken_;          // per BU
  std::size_t unprocessed_ = 0;
};

}  // namespace flexmr::hdfs
