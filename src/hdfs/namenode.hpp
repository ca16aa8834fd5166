// NameNode: creates file layouts with replica placement.
//
// Placement mirrors the Hadoop default on a flat (single-rack) topology:
// each block's replicas land on `replication` distinct nodes chosen
// uniformly at random. A round-robin policy is provided for tests that need
// a perfectly even layout.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "hdfs/block.hpp"

namespace flexmr::hdfs {

enum class PlacementPolicy {
  kRandom,      ///< Hadoop default: replicas on uniform-random distinct nodes.
  kRoundRobin,  ///< Deterministic even spread (testing / worst-case studies).
};

class NameNode {
 public:
  NameNode(std::uint32_t num_nodes, PlacementPolicy policy, Rng rng);

  /// Creates a file of `size` MiB split into `block_size` blocks of
  /// `bu_size` BUs, replicated `replication` times. If the cluster has
  /// fewer nodes than `replication`, every node holds a replica.
  /// Under `storage.rs(k,m)` each block is instead striped onto k+m
  /// distinct part holders (the cluster must have at least k+m nodes);
  /// `replication` is still recorded but placement ignores it.
  FileLayout create_file(MiB size, MiB block_size, std::uint32_t replication,
                         MiB bu_size = kBlockUnitMiB,
                         StoragePolicy storage = {});

  std::uint32_t num_nodes() const { return num_nodes_; }

 private:
  std::vector<NodeId> place_replicas(std::uint32_t count);

  std::uint32_t num_nodes_;
  PlacementPolicy policy_;
  Rng rng_;
  NodeId next_rr_ = 0;
  /// Random placement's draw pool: node ids by position, the identity
  /// between blocks; `displaced_` lists the positions one block wrote.
  std::vector<NodeId> pool_;
  std::vector<std::uint32_t> displaced_;
};

}  // namespace flexmr::hdfs
