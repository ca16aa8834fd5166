// ResourceManager: YARN slot accounting and the container-offer protocol.
//
// The RM tracks free container slots per node and *offers* them to the
// AppMaster (our JobDriver) through a callback. An offer handler returns
// true to consume the slot (a task was dispatched there) or false to
// decline; declined slots stay free and are re-offered whenever cluster
// state changes (a release, an explicit offer_all after a heartbeat or a
// phase transition). This models YARN's heartbeat-driven allocation loop
// without simulating the RPC machinery, and it is exactly the hook FlexMap
// needs: the paper's RMContainerAllocator modification signals JobImpl when
// containers become available so the mapper size can be decided *then*.
// Preemption is not the RM's: on a shared cluster the coordinator decides
// when to claw containers back (mr/multi_job.hpp), and the RM only sees the
// releases.
#pragma once

#include <functional>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace flexmr::yarn {

class ResourceManager {
 public:
  /// Handler returns true if it used the offered slot on `node`.
  using OfferHandler = std::function<bool(NodeId)>;

  explicit ResourceManager(const cluster::Cluster& cluster);

  void set_offer_handler(OfferHandler handler) {
    handler_ = std::move(handler);
  }

  std::uint32_t free_slots(NodeId node) const { return free_[node]; }
  std::uint32_t total_free() const { return total_free_; }
  /// Slots of *alive* nodes (mark_dead subtracts the failed node's).
  std::uint32_t total_slots() const { return total_slots_; }
  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(free_.size());
  }

  /// Consumes one free slot on `node` (the handler calls this implicitly by
  /// returning true; direct use is for dispatches outside the offer path).
  void acquire(NodeId node);

  /// Returns a slot on `node` and immediately re-offers it.
  void release(NodeId node);

  /// Offers every free slot, node by node, until the handler declines.
  void offer_all();

  /// Offers the free slots of a single node until declined.
  void offer_node(NodeId node);

  /// Marks a node as failed: its slots are withdrawn, future releases for
  /// it are ignored, and it is never offered again (until mark_alive).
  void mark_dead(NodeId node);
  bool is_dead(NodeId node) const { return dead_[node] != 0; }

  /// Node re-registration (a crashed node rejoining the cluster): restores
  /// the node's full slot capacity — its previous containers died with it
  /// — and resumes offering it. No-op on a node that is not dead.
  void mark_alive(NodeId node);

  /// NodeManager → RM liveness tracking. The heartbeat generator records
  /// arrivals here; the AM/driver compares `last_heartbeat` against its
  /// liveness timeout to declare silent nodes lost. Nodes start with a
  /// heartbeat at registration time (construction: 0).
  void record_heartbeat(NodeId node, SimTime now) {
    FLEXMR_ASSERT(node < last_heartbeat_.size());
    last_heartbeat_[node] = now;
  }
  SimTime last_heartbeat(NodeId node) const {
    FLEXMR_ASSERT(node < last_heartbeat_.size());
    return last_heartbeat_[node];
  }

 private:
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> capacity_;  ///< Original slots per node.
  std::vector<char> dead_;
  /// Alive node ids, ascending — the offer loop walks this instead of
  /// rescanning (and re-skipping dead entries of) the whole cluster on
  /// every heartbeat. Node death/rejoin is rare, so the sorted erase/
  /// insert there is cheap; offer order stays identical to a full scan.
  std::vector<NodeId> alive_;
  std::vector<SimTime> last_heartbeat_;
  std::uint32_t total_slots_ = 0;
  std::uint32_t total_free_ = 0;  ///< Maintained incrementally.
  OfferHandler handler_;
  bool offering_ = false;  ///< Guards against re-entrant offer cascades.
};

}  // namespace flexmr::yarn
