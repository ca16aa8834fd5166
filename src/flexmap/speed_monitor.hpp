// SpeedMonitor (paper §III-D): tracks per-node input processing speed.
//
// The driver computes each heartbeat round's per-node average container IPS
// (Eq. 3: HDFS_BYTES_READ / task runtime, averaged over the node's
// containers so record-cost skew washes out). The monitor keeps the latest
// known estimate per node — the paper's getSpeed interface — and derives
// the slowest/fastest known speeds used by horizontal scaling and by the
// biased reduce placer.
//
// The extrema are cached: update()/forget() maintain them incrementally and
// only an update that *retreats from* a current extremum (the anchor node
// slowing up / speeding down, or being forgotten) schedules a lazy O(n)
// rescan. Without the cache every relative_speed()/capacity() query rescans
// all nodes, which made each heartbeat wave O(n²) at cluster scale. Results
// are guaranteed identical to the scan (see the randomized equivalence test
// in tests/test_speed_monitor.cpp).
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
    const std::optional<MiBps> old = speeds_[node];
    speeds_[node] = ips;
    if (!old) ++known_count_;
    if (dirty_) return;
    if (old && anchors_extremum(*old)) {
      // The node may have been the sole anchor of an extremum; only a
      // rescan can tell what the new extremum is.
      dirty_ = true;
      return;
    }
    merge(ips);
  }

  /// Drops a node's estimate (its NodeManager failed): the node must no
  /// longer anchor the slowest/fastest baselines.
  void forget(NodeId node) {
    FLEXMR_ASSERT(node < speeds_.size());
    ++generation_;
    if (speeds_[node]) {
      --known_count_;
      if (!dirty_ && anchors_extremum(*speeds_[node])) dirty_ = true;
    }
    speeds_[node].reset();
  }

  /// The paper's getSpeed: last known IPS of `node`, nullopt before the
  /// node first reports.
  std::optional<MiBps> get_speed(NodeId node) const {
    FLEXMR_ASSERT(node < speeds_.size());
    return speeds_[node];
  }

  /// Slowest known node speed; nullopt until anyone has reported.
  std::optional<MiBps> slowest() const {
    if (dirty_) rescan();
    return slowest_;
  }

  /// Fastest known node speed; nullopt until anyone has reported.
  std::optional<MiBps> fastest() const {
    if (dirty_) rescan();
    return fastest_;
  }

  /// node speed / slowest known speed; 1.0 while speeds are unknown.
  double relative_speed(NodeId node) const;

  /// node speed / fastest known speed in (0, 1]; 1.0 while unknown.
  /// This is the capacity value c_i the reduce placer biases by.
  double capacity(NodeId node) const;

  std::size_t known_nodes() const { return known_count_; }

  /// Moves on every update() and forget(), so callers can key values
  /// derived from the speeds (FlexMap's capacity sums) on it.
  std::uint64_t generation() const { return generation_; }

 private:
  bool anchors_extremum(MiBps speed) const {
    return (slowest_ && speed <= *slowest_) ||
           (fastest_ && speed >= *fastest_);
  }

  /// Folds a fresh reading into the cached extrema (cache must be clean).
  void merge(MiBps ips) {
    if (!slowest_ || ips < *slowest_) slowest_ = ips;
    if (!fastest_ || ips > *fastest_) fastest_ = ips;
  }

  void rescan() const;

  std::vector<std::optional<MiBps>> speeds_;
  std::size_t known_count_ = 0;
  std::uint64_t generation_ = 0;
  // Extrema cache; `dirty_` forces a rescan on the next query.
  mutable std::optional<MiBps> slowest_;
  mutable std::optional<MiBps> fastest_;
  mutable bool dirty_ = false;
};

}  // namespace flexmr::flexmap
