#include "hdfs/namenode.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "common/error.hpp"
#include "obs/profiler.hpp"

namespace flexmr::hdfs {

double FileLayout::total_work() const {
  double work = 0.0;
  for (const auto& bu : bus) work += bu.size * bu.cost;
  return work;
}

void StoragePolicy::validate(std::uint32_t alive_nodes) const {
  if (!erasure()) return;
  if (rs_k < 1) {
    throw ConfigError("StoragePolicy: rs(k,m) requires k >= 1");
  }
  if (rs_m < 1) {
    throw ConfigError(
        "StoragePolicy: rs(k,m) requires m >= 1 (use replication for "
        "unprotected striping)");
  }
  if (rs_k + rs_m > alive_nodes) {
    std::ostringstream os;
    os << "StoragePolicy: rs(" << rs_k << "," << rs_m << ") needs " << rs_k + rs_m
       << " distinct part holders but only " << alive_nodes
       << " nodes are alive at t=0";
    throw ConfigError(os.str());
  }
  if (!(decode_mibps > 0)) {
    std::ostringstream os;
    os << "StoragePolicy: decode_mibps must be > 0, got " << decode_mibps;
    throw ConfigError(os.str());
  }
  if (!(repair_bandwidth_mibps > 0)) {
    std::ostringstream os;
    os << "StoragePolicy: repair_bandwidth_mibps must be > 0, got "
       << repair_bandwidth_mibps;
    throw ConfigError(os.str());
  }
}

NameNode::NameNode(std::uint32_t num_nodes, PlacementPolicy policy, Rng rng)
    : num_nodes_(num_nodes), policy_(policy), rng_(rng), pool_(num_nodes) {
  FLEXMR_ASSERT(num_nodes > 0);
  std::iota(pool_.begin(), pool_.end(), NodeId{0});
}

std::vector<NodeId> NameNode::place_replicas(std::uint32_t count) {
  count = std::min(count, num_nodes_);
  std::vector<NodeId> replicas;
  replicas.reserve(count);
  if (policy_ == PlacementPolicy::kRoundRobin) {
    for (std::uint32_t i = 0; i < count; ++i) {
      replicas.push_back((next_rr_ + i) % num_nodes_);
    }
    next_rr_ = (next_rr_ + 1) % num_nodes_;
    return replicas;
  }
  // Random distinct nodes via partial Fisher-Yates over node ids. Draw i
  // swaps positions i and j >= i and keeps the node that lands at i; no
  // later draw reads a position below i, so only j is written. The pool
  // is the identity outside the displaced positions, which are restored
  // after the block: O(count) per block, not O(nodes).
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto j = i + static_cast<std::uint32_t>(
                           rng_.uniform_int(num_nodes_ - i));
    replicas.push_back(pool_[j]);
    pool_[j] = pool_[i];
    displaced_.push_back(j);
  }
  for (const std::uint32_t j : displaced_) pool_[j] = j;
  displaced_.clear();
  std::sort(replicas.begin(), replicas.end());
  return replicas;
}

FileLayout NameNode::create_file(MiB size, MiB block_size,
                                 std::uint32_t replication, MiB bu_size,
                                 StoragePolicy storage) {
  FLEXMR_PROF_SCOPE("hdfs/create_file");
  // Caller-facing misconfiguration is a ConfigError, not an assert: these
  // values come straight from RunConfig / bench flags.
  if (!(size > 0)) {
    std::ostringstream os;
    os << "NameNode::create_file: file size must be > 0, got " << size;
    throw ConfigError(os.str());
  }
  if (!(block_size > 0)) {
    std::ostringstream os;
    os << "NameNode::create_file: block size must be > 0, got " << block_size;
    throw ConfigError(os.str());
  }
  if (replication == 0) {
    throw ConfigError("NameNode::create_file: replication must be >= 1");
  }
  storage.validate(num_nodes_);
  if (!(bu_size > 0) || block_size < bu_size) {
    std::ostringstream os;
    os << "NameNode::create_file: BU size " << bu_size
       << " must be in (0, block size " << block_size << "]";
    throw ConfigError(os.str());
  }
  const double rem = std::fmod(block_size, bu_size);
  if (rem > 1e-9 && bu_size - rem > 1e-9) {
    std::ostringstream os;
    os << "NameNode::create_file: BU size " << bu_size
       << " does not divide block size " << block_size;
    throw ConfigError(os.str());
  }

  FileLayout layout;
  layout.total_size = size;
  layout.block_size = block_size;
  layout.bu_size = bu_size;
  layout.replication = std::min(replication, num_nodes_);
  layout.storage = storage;
  // Under rs(k,m) a block's "replicas" are its k+m part holders, each on a
  // distinct node (validated above, so place_replicas never clamps).
  const std::uint32_t holders_per_block =
      storage.erasure() ? storage.total_parts() : layout.replication;

  const auto bus_per_block =
      static_cast<std::uint32_t>(std::ceil(block_size / bu_size - 1e-9));
  // Capacity hints only; the loop below decides the counts.
  layout.blocks.reserve(static_cast<std::size_t>(std::ceil(size / block_size)));
  layout.bus.reserve(static_cast<std::size_t>(std::ceil(size / bu_size)));
  MiB remaining = size;
  std::uint32_t block_id = 0;
  BlockUnitId bu_id = 0;
  while (remaining > 1e-9) {
    Block block;
    block.id = block_id;
    block.replicas = place_replicas(holders_per_block);
    block.bus.reserve(bus_per_block);
    for (std::uint32_t i = 0; i < bus_per_block && remaining > 1e-9; ++i) {
      BlockUnit bu;
      bu.id = bu_id++;
      bu.block = block_id;
      bu.size = std::min(bu_size, remaining);
      remaining -= bu.size;
      block.bus.push_back(bu.id);
      layout.bus.push_back(bu);
    }
    layout.blocks.push_back(std::move(block));
    ++block_id;
  }
  return layout;
}

}  // namespace flexmr::hdfs
