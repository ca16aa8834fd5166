// SpeedMonitor (Eq. 3 bookkeeping) and BiasedReducePlacer (c² acceptance).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "flexmap/reduce_placer.hpp"
#include "flexmap/speed_monitor.hpp"

namespace flexmr::flexmap {
namespace {

TEST(SpeedMonitor, UnknownUntilFirstReport) {
  SpeedMonitor monitor(3);
  EXPECT_FALSE(monitor.get_speed(0).has_value());
  EXPECT_FALSE(monitor.slowest().has_value());
  EXPECT_FALSE(monitor.fastest().has_value());
  EXPECT_EQ(monitor.known_nodes(), 0u);
  EXPECT_DOUBLE_EQ(monitor.relative_speed(0), 1.0);
  EXPECT_DOUBLE_EQ(monitor.capacity(0), 1.0);
}

TEST(SpeedMonitor, TracksLatestPerNode) {
  SpeedMonitor monitor(3);
  monitor.update(0, 10.0);
  monitor.update(0, 12.0);
  EXPECT_DOUBLE_EQ(*monitor.get_speed(0), 12.0);
  EXPECT_EQ(monitor.known_nodes(), 1u);
}

TEST(SpeedMonitor, SlowestAndFastestOverKnownNodes) {
  SpeedMonitor monitor(4);
  monitor.update(1, 4.0);
  monitor.update(2, 16.0);
  EXPECT_DOUBLE_EQ(*monitor.slowest(), 4.0);
  EXPECT_DOUBLE_EQ(*monitor.fastest(), 16.0);
}

TEST(SpeedMonitor, RelativeSpeedVsSlowest) {
  SpeedMonitor monitor(3);
  monitor.update(0, 4.0);
  monitor.update(1, 12.0);
  EXPECT_DOUBLE_EQ(monitor.relative_speed(0), 1.0);
  EXPECT_DOUBLE_EQ(monitor.relative_speed(1), 3.0);
  // Unknown node: neutral ratio.
  EXPECT_DOUBLE_EQ(monitor.relative_speed(2), 1.0);
}

TEST(SpeedMonitor, CapacityNormalizedToFastest) {
  SpeedMonitor monitor(2);
  monitor.update(0, 5.0);
  monitor.update(1, 20.0);
  EXPECT_DOUBLE_EQ(monitor.capacity(1), 1.0);
  EXPECT_DOUBLE_EQ(monitor.capacity(0), 0.25);
}

TEST(SpeedMonitor, OutOfRangeNodeThrows) {
  SpeedMonitor monitor(2);
  EXPECT_THROW(monitor.update(5, 1.0), InvariantError);
  EXPECT_THROW(monitor.get_speed(5), InvariantError);
}

TEST(BiasedReducePlacer, FullCapacityAlwaysAccepts) {
  BiasedReducePlacer placer(1);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(placer.accept(1.0));
}

TEST(BiasedReducePlacer, ZeroCapacityNeverAccepts) {
  BiasedReducePlacer placer(2);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(placer.accept(0.0));
}

TEST(BiasedReducePlacer, AcceptanceRateIsCapacitySquared) {
  BiasedReducePlacer placer(3);
  const double c = 0.5;
  int accepted = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (placer.accept(c)) ++accepted;
  }
  EXPECT_NEAR(static_cast<double>(accepted) / n, c * c, 0.02);
}

TEST(BiasedReducePlacer, InvalidCapacityThrows) {
  BiasedReducePlacer placer(4);
  EXPECT_THROW(placer.accept(-0.1), InvariantError);
  EXPECT_THROW(placer.accept(1.1), InvariantError);
}

// Reference implementation of the monitor's pre-cache semantics: extrema by
// full scan on every query. The cached monitor must be observationally
// identical to this under any operation sequence.
class ScanReference {
 public:
  explicit ScanReference(std::uint32_t n) : speeds_(n) {}

  void update(NodeId node, MiBps ips) { speeds_[node] = ips; }
  void forget(NodeId node) { speeds_[node].reset(); }

  std::optional<MiBps> slowest() const {
    std::optional<MiBps> out;
    for (const auto& s : speeds_) {
      if (s && (!out || *s < *out)) out = s;
    }
    return out;
  }

  std::optional<MiBps> fastest() const {
    std::optional<MiBps> out;
    for (const auto& s : speeds_) {
      if (s && (!out || *s > *out)) out = s;
    }
    return out;
  }

  double relative_speed(NodeId node) const {
    const auto own = speeds_[node];
    const auto low = slowest();
    if (!own || !low || *low <= 0.0) return 1.0;
    return *own / *low;
  }

  double capacity(NodeId node) const {
    const auto own = speeds_[node];
    const auto high = fastest();
    if (!own || !high || *high <= 0.0) return 1.0;
    return std::clamp(*own / *high, 1e-6, 1.0);
  }

  std::size_t known_nodes() const {
    std::size_t n = 0;
    for (const auto& s : speeds_) n += s.has_value() ? 1 : 0;
    return n;
  }

 private:
  std::vector<std::optional<MiBps>> speeds_;
};

TEST(SpeedMonitor, CachedExtremaMatchScanReferenceUnderRandomOps) {
  constexpr std::uint32_t kNodes = 13;
  SpeedMonitor monitor(kNodes);
  ScanReference reference(kNodes);
  std::mt19937 rng(20260805u);
  std::uniform_int_distribution<std::uint32_t> pick_node(0, kNodes - 1);
  std::uniform_int_distribution<int> pick_op(0, 9);
  // A small discrete speed set forces ties, so extremum anchors are often
  // shared between nodes — the hardest case for incremental maintenance.
  std::uniform_int_distribution<int> pick_speed(0, 7);

  for (int round = 0; round < 5000; ++round) {
    const NodeId node = pick_node(rng);
    const std::uint64_t generation = monitor.generation();
    if (pick_op(rng) < 8) {
      const MiBps ips = 2.5 * pick_speed(rng);  // 0 is a legal reading
      monitor.update(node, ips);
      reference.update(node, ips);
    } else {
      monitor.forget(node);
      reference.forget(node);
    }
    // Every update and forget moves the generation, even one that leaves
    // the speeds as they were: callers key derived sums on it.
    ASSERT_NE(monitor.generation(), generation) << "round " << round;
    ASSERT_EQ(monitor.slowest(), reference.slowest()) << "round " << round;
    ASSERT_EQ(monitor.fastest(), reference.fastest()) << "round " << round;
    ASSERT_EQ(monitor.known_nodes(), reference.known_nodes())
        << "round " << round;
    for (NodeId n = 0; n < kNodes; ++n) {
      ASSERT_EQ(monitor.relative_speed(n), reference.relative_speed(n))
          << "round " << round << " node " << n;
      ASSERT_EQ(monitor.capacity(n), reference.capacity(n))
          << "round " << round << " node " << n;
    }
  }
}

TEST(SpeedMonitor, AllForgottenReturnsToUnknown) {
  SpeedMonitor monitor(4);
  monitor.update(0, 3.0);
  monitor.update(1, 9.0);
  monitor.update(2, 6.0);
  monitor.forget(1);  // drops the fastest anchor
  monitor.forget(0);  // drops the slowest anchor
  monitor.forget(2);
  EXPECT_FALSE(monitor.slowest().has_value());
  EXPECT_FALSE(monitor.fastest().has_value());
  EXPECT_EQ(monitor.known_nodes(), 0u);
  EXPECT_DOUBLE_EQ(monitor.relative_speed(0), 1.0);
  EXPECT_DOUBLE_EQ(monitor.capacity(0), 1.0);
}

TEST(SpeedMonitor, SingleNodeIsBothExtrema) {
  SpeedMonitor monitor(5);
  monitor.update(3, 7.5);
  EXPECT_DOUBLE_EQ(*monitor.slowest(), 7.5);
  EXPECT_DOUBLE_EQ(*monitor.fastest(), 7.5);
  EXPECT_DOUBLE_EQ(monitor.relative_speed(3), 1.0);
  EXPECT_DOUBLE_EQ(monitor.capacity(3), 1.0);
}

TEST(SpeedMonitor, RejoinResetRecomputesExtrema) {
  SpeedMonitor monitor(3);
  monitor.update(0, 2.0);
  monitor.update(1, 10.0);
  monitor.update(2, 5.0);
  ASSERT_DOUBLE_EQ(*monitor.slowest(), 2.0);
  // Node 0 fails and rejoins: forget() must un-anchor the old slowest, and
  // its fresh post-rejoin reading lands wherever it now belongs.
  monitor.forget(0);
  EXPECT_DOUBLE_EQ(*monitor.slowest(), 5.0);
  monitor.update(0, 20.0);
  EXPECT_DOUBLE_EQ(*monitor.slowest(), 5.0);
  EXPECT_DOUBLE_EQ(*monitor.fastest(), 20.0);
  EXPECT_DOUBLE_EQ(monitor.capacity(1), 0.5);
}

}  // namespace
}  // namespace flexmr::flexmap
