// SpeedMonitor (paper §III-D): tracks per-node input processing speed.
//
// The driver computes each heartbeat round's per-node average container IPS
// (Eq. 3: HDFS_BYTES_READ / task runtime, averaged over the node's
// containers so record-cost skew washes out). The monitor keeps the latest
// known estimate per node — the paper's getSpeed interface. What is derived
// from the readings (the slowest known speed behind horizontal scaling, the
// capacity sums behind the end-game cap and the biased reduce placer) is
// FlexMapScheduler's, rebuilt once per generation().
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace flexmr::flexmap {

class SpeedMonitor {
 public:
  explicit SpeedMonitor(std::uint32_t num_nodes)
      : speeds_(num_nodes) {}

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(speeds_.size());
  }

  /// Records the round-average IPS heard from `node` this heartbeat.
  void update(NodeId node, MiBps ips) {
    FLEXMR_ASSERT(node < speeds_.size());
    FLEXMR_ASSERT(ips >= 0.0);
    ++generation_;
    if (!speeds_[node]) ++known_count_;
    speeds_[node] = ips;
  }

  /// Drops a node's estimate (its NodeManager failed or re-registered):
  /// the old incarnation's speed must not size anything.
  void forget(NodeId node) {
    FLEXMR_ASSERT(node < speeds_.size());
    ++generation_;
    if (speeds_[node]) --known_count_;
    speeds_[node].reset();
  }

  /// The paper's getSpeed: last known IPS of `node`, nullopt before the
  /// node first reports.
  std::optional<MiBps> get_speed(NodeId node) const {
    FLEXMR_ASSERT(node < speeds_.size());
    return speeds_[node];
  }

  std::size_t known_nodes() const { return known_count_; }

  /// Moves on every update() and forget(), so callers can key values
  /// derived from the speeds (FlexMap's capacity sums) on it.
  std::uint64_t generation() const { return generation_; }

 private:
  std::vector<std::optional<MiBps>> speeds_;
  std::size_t known_count_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace flexmr::flexmap
