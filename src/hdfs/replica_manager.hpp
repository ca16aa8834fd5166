// ReplicaManager — the live half of the NameNode.
//
// PR 2 made the compute plane fault-tolerant but left the data plane an
// oracle: `NameNode::create_file` produced a static FileLayout and a dead
// node silently kept "serving" its replicas. The ReplicaManager tracks the
// *live* replica set of every block as nodes die and rejoin, maintains the
// under-replicated queue a real NameNode keeps, and runs a bandwidth-
// modeled re-replication pipeline that restores the replication factor on
// surviving nodes.
//
// Replica lifecycle of one block (replication r):
//
//   placed(r live) --node death--> under-replicated (queued)
//        ^                              |
//        |                        pipeline copy
//        |                   (block_bytes / bandwidth s)
//        +------ re-replicated <--------+
//
//   under-replicated --last holder dies--> zero-replica (stalled):
//     the driver aborts with DataLossError unless a dead holder has a
//     planned rejoin, in which case the block waits for its block report.
//
// Under an rs(k,m) StoragePolicy the same machinery runs on parts: the
// target holder count is k+m, a block is *unreadable* (the zero-replica
// state above) once fewer than k parts are live, and each pipeline pass
// reconstructs one lost part by reading k surviving parts — a full block
// of repair traffic per part, the k× read amplification that prices
// erasure repair against whole-block re-replication.
//
// Two holder views are kept per block: *live* holders (alive nodes whose
// disk has the data — what schedulers and locality decisions see) and
// *remembered* holders (every disk with the data, alive or dead — a silent
// crash does not wipe the disk, so a rejoining node's block report
// restores its replicas; over-replication after a rejoin is tolerated,
// exactly as in HDFS).
//
// The manager owns replica liveness for the AM as well: the AM's block
// index (BlockLocationIndex, attach()) reads live holders from here, and
// every change below updates the index's local pools in the same call.
//
// The pipeline copies one block at a time: HDFS throttles re-replication
// (dfs.namenode.replication.max-streams / dfs.datanode.balance.bandwidth-
// PerSec) so recovery is deliberately slow relative to task traffic. Target
// selection is deterministic: the alive non-holder with the fewest live
// replicas, ties toward the lowest node id.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "hdfs/block.hpp"
#include "simcore/simulator.hpp"

namespace flexmr::obs {
class EventTracer;
}

namespace flexmr::hdfs {

class BlockLocationIndex;

class ReplicaManager {
 public:
  /// What one node death (or single-disk loss) did to the replica map.
  struct NodeLossReport {
    /// Blocks that lost a replica/part on the node (ascending block id).
    std::vector<std::uint32_t> lost;
    /// Subset of `lost` now unreadable: no live replica at all, or fewer
    /// than k live parts under rs(k,m).
    std::vector<std::uint32_t> zero;
  };

  /// Fired when a re-replication copy lands on `target`.
  using CopyComplete =
      std::function<void(std::uint32_t block, NodeId target)>;

  ReplicaManager(const FileLayout& layout, std::uint32_t num_nodes);
  // Pipeline events and the attached index hold this manager's address.
  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  /// Turns the re-replication pipeline on. Without this call the manager
  /// only tracks liveness (blocks stay under-replicated until rejoin).
  void enable_re_replication(Simulator& sim, double bandwidth_mibps);

  void set_copy_complete_handler(CopyComplete handler) {
    on_copy_complete_ = std::move(handler);
  }

  /// Makes `index` the AM's view of this file: it reads live holders from
  /// here, and node loss, rejoin, disk loss and landed copies update its
  /// local pools. A successor AM's fresh index replaces its predecessor's.
  void attach(BlockLocationIndex& index);

  /// Opt-in tracing of the re-replication pipeline (one X span per copy,
  /// an instant per torn-down copy). Null disables.
  void set_tracer(obs::EventTracer* tracer) { tracer_ = tracer; }

  /// Blocks currently below their replication factor with recovery work
  /// outstanding: queued + parked + the in-flight copy. Feeds the
  /// under_replicated_blocks metrics gauge.
  std::size_t under_replicated_count() const {
    return queue_.size() + parked_.size() + (in_flight_ ? 1 : 0);
  }

  const std::vector<NodeId>& live_holders(std::uint32_t block) const {
    return live_holders_[block];
  }
  std::size_t live_holder_count(std::uint32_t block) const {
    return live_holders_[block].size();
  }
  bool holds_live(std::uint32_t block, NodeId node) const;

  /// Every disk with the data, alive or dead (rejoin memory).
  const std::vector<NodeId>& remembered_holders(std::uint32_t block) const {
    return disk_holders_[block];
  }

  bool node_alive(NodeId node) const { return alive_[node] != 0; }

  /// Live holders a block needs to stay readable (k under rs(k,m), else 1)
  /// and the holder count repair restores toward (k+m, else replication).
  std::uint32_t min_live() const { return min_live_; }
  std::uint32_t target_holders() const { return target_holders_; }

  /// True while at least one block is unreadable (no live replica, or
  /// < k live parts) — such blocks keep unprocessed BUs that no scheduler
  /// can take, so the driver's scheduling-deadlock guard must stand down
  /// until rejoin.
  bool has_unreadable_blocks() const { return unreadable_count_ > 0; }

  /// Bytes the repair pipeline has read so far (re-replication reads the
  /// block once per copy; rs(k,m) reads k parts — one full block — per
  /// reconstructed part).
  MiB repair_read_mib() const { return repair_read_mib_; }
  /// Lost parts the pipeline has reconstructed (0 under replication).
  std::uint64_t parts_reconstructed() const { return parts_reconstructed_; }

  /// Which of a node's disks a block's replica/part lives on — a fixed
  /// deterministic striping shared by the fault plan and the driver.
  static std::uint32_t disk_of(std::uint32_t block, NodeId node,
                               std::uint32_t disks_per_node) {
    return (block + node) % disks_per_node;
  }

  /// The node was declared lost: drop its replicas from the live view,
  /// queue re-replication work, and report what happened.
  NodeLossReport on_node_lost(NodeId node);

  /// One disk of a (possibly live) node failed: only the replicas/parts
  /// striped onto that disk are destroyed — unlike a crash the data is
  /// really gone, so the node's rejoin block report will not restore them
  /// and the repair pipeline may legitimately re-target the same node.
  NodeLossReport on_disk_lost(NodeId node, std::uint32_t disk,
                              std::uint32_t disks_per_node);

  /// The node re-registered and sent its block report: every block on its
  /// disk regains a live replica. Returns the restored block ids.
  std::vector<std::uint32_t> on_node_restored(NodeId node);

 private:
  struct InFlightCopy {
    std::uint32_t block = 0;
    NodeId source = kInvalidNode;
    NodeId target = kInvalidNode;
    EventId event = kInvalidEvent;
    SimTime started_at = 0;  ///< Copy start, for the trace span.
  };

  void enqueue(std::uint32_t block);
  void pump();
  void finish_copy(std::uint32_t block, NodeId target);
  NodeId pick_target(std::uint32_t block) const;

  const FileLayout* layout_;
  Simulator* sim_ = nullptr;
  double bandwidth_mibps_ = 0.0;
  CopyComplete on_copy_complete_;
  obs::EventTracer* tracer_ = nullptr;
  BlockLocationIndex* index_ = nullptr;
  /// The live view has left the static layout (a loss or a landed copy).
  bool view_changed_ = false;

  std::vector<std::vector<NodeId>> live_holders_;  // per block
  std::vector<std::vector<NodeId>> disk_holders_;  // per block
  std::vector<std::vector<std::uint32_t>> node_blocks_;  // per node
  std::vector<MiB> block_bytes_;
  std::vector<char> alive_;
  std::vector<std::size_t> live_block_count_;  // per node, target selection

  // 0 = idle, 1 = queued, 2 = parked (no target available until a rejoin).
  std::vector<char> queue_state_;
  std::deque<std::uint32_t> queue_;
  std::vector<std::uint32_t> parked_;
  std::optional<InFlightCopy> in_flight_;
  std::uint32_t min_live_ = 1;
  std::uint32_t target_holders_ = 3;
  std::size_t unreadable_count_ = 0;
  MiB repair_read_mib_ = 0.0;
  std::uint64_t parts_reconstructed_ = 0;
};

}  // namespace flexmr::hdfs
