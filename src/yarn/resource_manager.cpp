#include "yarn/resource_manager.hpp"

#include <algorithm>

#include "obs/profiler.hpp"

namespace flexmr::yarn {

ResourceManager::ResourceManager(const cluster::Cluster& cluster)
    : dead_(cluster.num_nodes(), 0),
      last_heartbeat_(cluster.num_nodes(), 0.0) {
  free_.reserve(cluster.num_nodes());
  capacity_.reserve(cluster.num_nodes());
  alive_.reserve(cluster.num_nodes());
  for (NodeId node = 0; node < cluster.num_nodes(); ++node) {
    free_.push_back(cluster.machine(node).slots());
    capacity_.push_back(cluster.machine(node).slots());
    alive_.push_back(node);
    total_slots_ += cluster.machine(node).slots();
  }
  total_free_ = total_slots_;
}

void ResourceManager::acquire(NodeId node) {
  FLEXMR_ASSERT(node < free_.size());
  FLEXMR_ASSERT_MSG(free_[node] > 0, "acquire on a node with no free slots");
  --free_[node];
  --total_free_;
}

void ResourceManager::release(NodeId node) {
  FLEXMR_ASSERT(node < free_.size());
  if (dead_[node]) return;  // slots of a failed node are gone
  ++free_[node];
  ++total_free_;
  offer_node(node);
}

void ResourceManager::mark_dead(NodeId node) {
  FLEXMR_ASSERT(node < free_.size());
  if (dead_[node]) return;
  dead_[node] = 1;
  total_free_ -= free_[node];
  free_[node] = 0;
  total_slots_ -= capacity_[node];
  alive_.erase(std::find(alive_.begin(), alive_.end(), node));
}

void ResourceManager::mark_alive(NodeId node) {
  FLEXMR_ASSERT(node < free_.size());
  if (!dead_[node]) return;
  dead_[node] = 0;
  free_[node] = capacity_[node];
  total_free_ += capacity_[node];
  total_slots_ += capacity_[node];
  alive_.insert(std::lower_bound(alive_.begin(), alive_.end(), node), node);
}

void ResourceManager::offer_node(NodeId node) {
  if (!handler_ || offering_ || dead_[node]) return;
  FLEXMR_PROF_SCOPE("rm/offer_node");
  offering_ = true;
  while (free_[node] > 0 && handler_(node)) {
    --free_[node];
    --total_free_;
  }
  offering_ = false;
}

void ResourceManager::offer_all() {
  if (!handler_ || offering_) return;
  // This walk is the O(nodes) per-heartbeat control term the 10k grid
  // exposed (ROADMAP): attribute it even when no slot is granted.
  FLEXMR_PROF_SCOPE("rm/offer_all");
  offering_ = true;
  // Walk alive nodes in ascending id order (identical to the historical
  // full scan). Index-based: a handler cascade may append work but never
  // runs a nested offer loop (offering_ guard), and node death happens on
  // its own events, not inside an offer.
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    const NodeId node = alive_[i];
    while (free_[node] > 0 && handler_(node)) {
      --free_[node];
      --total_free_;
    }
  }
  offering_ = false;
}

}  // namespace flexmr::yarn
