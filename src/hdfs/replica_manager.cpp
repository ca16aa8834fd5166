#include "hdfs/replica_manager.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "hdfs/block_index.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace flexmr::hdfs {

ReplicaManager::ReplicaManager(const FileLayout& layout,
                               std::uint32_t num_nodes)
    : layout_(&layout),
      live_holders_(layout.blocks.size()),
      disk_holders_(layout.blocks.size()),
      node_blocks_(num_nodes),
      block_bytes_(layout.blocks.size(), 0.0),
      alive_(num_nodes, 1),
      live_block_count_(num_nodes, 0),
      queue_state_(layout.blocks.size(), 0),
      min_live_(layout.min_live()),
      target_holders_(layout.target_holders()) {
  for (const auto& block : layout.blocks) {
    live_holders_[block.id] = block.replicas;
    disk_holders_[block.id] = block.replicas;
    for (const NodeId node : block.replicas) {
      FLEXMR_ASSERT(node < num_nodes);
      node_blocks_[node].push_back(block.id);
      ++live_block_count_[node];
    }
    for (const BlockUnitId bu : block.bus) {
      block_bytes_[block.id] += layout.bus[bu].size;
    }
  }
}

void ReplicaManager::enable_re_replication(Simulator& sim,
                                           double bandwidth_mibps) {
  FLEXMR_ASSERT(bandwidth_mibps > 0.0);
  sim_ = &sim;
  bandwidth_mibps_ = bandwidth_mibps;
}

void ReplicaManager::attach(BlockLocationIndex& index) {
  index_ = &index;
  index.attach(*this, view_changed_);
}

bool ReplicaManager::holds_live(std::uint32_t block, NodeId node) const {
  const auto& holders = live_holders_[block];
  return std::find(holders.begin(), holders.end(), node) != holders.end();
}

ReplicaManager::NodeLossReport ReplicaManager::on_node_lost(NodeId node) {
  NodeLossReport report;
  if (!alive_[node]) return report;
  alive_[node] = 0;
  live_block_count_[node] = 0;
  view_changed_ = true;

  // An in-flight copy reading from or writing to the dead node is torn
  // down; the block re-enters the queue at the front so recovery resumes
  // with the most urgent work.
  if (in_flight_ &&
      (in_flight_->source == node || in_flight_->target == node)) {
    sim_->cancel(in_flight_->event);
    const std::uint32_t block = in_flight_->block;
    if (tracer_ != nullptr) {
      tracer_->instant({obs::kNameNodePid, 0},
                       "re-replication aborted (holder died)", "hdfs",
                       sim_->now(),
                       {{"block", block},
                        {"source", in_flight_->source},
                        {"target", in_flight_->target}});
    }
    in_flight_.reset();
    if (queue_state_[block] == 0) {
      queue_state_[block] = 1;
      queue_.push_front(block);
    }
  }

  for (const std::uint32_t block : node_blocks_[node]) {
    auto& holders = live_holders_[block];
    const auto it = std::find(holders.begin(), holders.end(), node);
    if (it == holders.end()) continue;  // already non-live (repeat death)
    holders.erase(it);
    report.lost.push_back(block);
    if (holders.size() < min_live_) {
      report.zero.push_back(block);
      if (holders.size() + 1 == min_live_) ++unreadable_count_;
    } else {
      enqueue(block);
    }
  }
  if (index_ != nullptr) index_->node_lost(node);
  pump();
  return report;
}

ReplicaManager::NodeLossReport ReplicaManager::on_disk_lost(
    NodeId node, std::uint32_t disk, std::uint32_t disks_per_node) {
  NodeLossReport report;
  view_changed_ = true;
  auto& blocks = node_blocks_[node];
  for (std::size_t i = 0; i < blocks.size();) {
    const std::uint32_t block = blocks[i];
    if (disk_of(block, node, disks_per_node) != disk) {
      ++i;
      continue;
    }
    // The disk's data is destroyed: forget it from both the live view and
    // the rejoin memory, so neither a block report nor target selection
    // treats the node as still holding it.
    blocks[i] = blocks.back();
    blocks.pop_back();
    auto& remembered = disk_holders_[block];
    const auto rit = std::find(remembered.begin(), remembered.end(), node);
    if (rit != remembered.end()) remembered.erase(rit);

    if (in_flight_ && in_flight_->block == block &&
        (in_flight_->source == node || in_flight_->target == node)) {
      sim_->cancel(in_flight_->event);
      if (tracer_ != nullptr) {
        tracer_->instant({obs::kNameNodePid, 0},
                         "repair aborted (disk failed)", "hdfs", sim_->now(),
                         {{"block", block},
                          {"source", in_flight_->source},
                          {"target", in_flight_->target}});
      }
      in_flight_.reset();
      if (queue_state_[block] == 0) {
        queue_state_[block] = 1;
        queue_.push_front(block);
      }
    }

    auto& holders = live_holders_[block];
    const auto it = std::find(holders.begin(), holders.end(), node);
    if (it != holders.end()) {
      holders.erase(it);
      FLEXMR_ASSERT(live_block_count_[node] > 0);
      --live_block_count_[node];
      report.lost.push_back(block);
      if (index_ != nullptr) index_->replica_lost(block, node);
      if (holders.size() < min_live_) {
        report.zero.push_back(block);
        if (holders.size() + 1 == min_live_) ++unreadable_count_;
      } else {
        enqueue(block);
      }
    }
  }
  std::sort(report.lost.begin(), report.lost.end());
  std::sort(report.zero.begin(), report.zero.end());
  pump();
  return report;
}

std::vector<std::uint32_t> ReplicaManager::on_node_restored(NodeId node) {
  std::vector<std::uint32_t> restored;
  if (alive_[node]) return restored;
  alive_[node] = 1;
  for (const std::uint32_t block : node_blocks_[node]) {
    auto& holders = live_holders_[block];
    if (holders.size() + 1 == min_live_) --unreadable_count_;
    holders.push_back(node);
    ++live_block_count_[node];
    restored.push_back(block);
    if (holders.size() < target_holders_) enqueue(block);
  }
  if (index_ != nullptr) index_->node_restored(node);
  // Parked blocks were waiting for a viable target; the rejoined node may
  // be one.
  for (const std::uint32_t block : parked_) {
    queue_state_[block] = 1;
    queue_.push_back(block);
  }
  parked_.clear();
  pump();
  return restored;
}

void ReplicaManager::enqueue(std::uint32_t block) {
  if (sim_ == nullptr) return;  // re-replication disabled
  if (queue_state_[block] != 0) return;
  queue_state_[block] = 1;
  queue_.push_back(block);
}

NodeId ReplicaManager::pick_target(std::uint32_t block) const {
  // Deterministic: the alive node not already remembering the block (a
  // rejoining ex-holder would double-count) with the fewest live blocks,
  // ties toward the lowest id.
  const auto& remembered = disk_holders_[block];
  NodeId best = kInvalidNode;
  for (NodeId node = 0; node < alive_.size(); ++node) {
    if (!alive_[node]) continue;
    if (std::find(remembered.begin(), remembered.end(), node) !=
        remembered.end()) {
      continue;
    }
    if (best == kInvalidNode ||
        live_block_count_[node] < live_block_count_[best]) {
      best = node;
    }
  }
  return best;
}

void ReplicaManager::pump() {
  if (sim_ == nullptr) return;
  // Covers target selection too (pick_target is an O(nodes) scan per
  // queued block) — the NameNode's share of control time under faults.
  FLEXMR_PROF_SCOPE("hdfs/replica_pump");
  while (!in_flight_ && !queue_.empty()) {
    const std::uint32_t block = queue_.front();
    queue_.pop_front();
    queue_state_[block] = 0;
    const auto& holders = live_holders_[block];
    // Unreadable blocks stall until a rejoin re-enqueues them: replication
    // needs a surviving copy to read, rs(k,m) needs k surviving parts to
    // decode.
    if (holders.size() < min_live_) continue;
    if (holders.size() >= target_holders_) continue;  // raced a rejoin
    const NodeId target = pick_target(block);
    if (target == kInvalidNode) {
      queue_state_[block] = 2;
      parked_.push_back(block);
      continue;
    }
    InFlightCopy copy;
    copy.block = block;
    copy.source = holders.front();
    copy.target = target;
    copy.started_at = sim_->now();
    copy.event = sim_->schedule_after(
        block_bytes_[block] / bandwidth_mibps_,
        [this, block, target]() { finish_copy(block, target); });
    in_flight_ = copy;
  }
}

void ReplicaManager::finish_copy(std::uint32_t block, NodeId target) {
  FLEXMR_PROF_SCOPE("hdfs/finish_copy");
  const bool erasure = layout_->storage.erasure();
  if (tracer_ != nullptr && in_flight_) {
    tracer_->complete({obs::kNameNodePid, 0},
                      (erasure ? "reconstruct part of block "
                               : "re-replicate block ") +
                          std::to_string(block),
                      "hdfs", in_flight_->started_at,
                      sim_->now() - in_flight_->started_at,
                      {{"block", block},
                       {"source", in_flight_->source},
                       {"target", target},
                       {"mib", block_bytes_[block]}});
  }
  in_flight_.reset();
  FLEXMR_LOG(Debug, "hdfs") << (erasure ? "reconstructed part of block "
                                        : "re-replicated block ")
                            << block << " to node " << target << " at t="
                            << sim_->now();
  // Either way the pipeline read a full block's worth of bytes — but an
  // erasure pass restored only one part (block/k), the k× amplification.
  repair_read_mib_ += block_bytes_[block];
  if (erasure) ++parts_reconstructed_;
  live_holders_[block].push_back(target);
  disk_holders_[block].push_back(target);
  node_blocks_[target].push_back(block);
  ++live_block_count_[target];
  view_changed_ = true;
  if (index_ != nullptr) index_->replica_landed(block, target);
  if (live_holders_[block].size() < target_holders_) enqueue(block);
  if (on_copy_complete_) on_copy_complete_(block, target);
  pump();
}

}  // namespace flexmr::hdfs
