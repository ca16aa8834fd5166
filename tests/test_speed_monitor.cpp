// SpeedMonitor (Eq. 3 bookkeeping) and BiasedReducePlacer (c² acceptance).
#include <gtest/gtest.h>

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
  EXPECT_EQ(monitor.known_nodes(), 0u);
}

TEST(SpeedMonitor, TracksLatestPerNode) {
  SpeedMonitor monitor(3);
  monitor.update(0, 10.0);
  monitor.update(0, 12.0);
  EXPECT_DOUBLE_EQ(*monitor.get_speed(0), 12.0);
  EXPECT_EQ(monitor.known_nodes(), 1u);
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

// Every update and forget moves the generation, even one that leaves the
// readings as they were (FlexMap keys its derived sums on it), and the
// known count follows the readings.
TEST(SpeedMonitor, GenerationMovesOnEveryUpdateAndForget) {
  constexpr std::uint32_t kNodes = 13;
  SpeedMonitor monitor(kNodes);
  std::vector<std::optional<MiBps>> reference(kNodes);
  std::mt19937 rng(20260805u);
  std::uniform_int_distribution<std::uint32_t> pick_node(0, kNodes - 1);
  std::uniform_int_distribution<int> pick_op(0, 9);
  std::uniform_int_distribution<int> pick_speed(0, 7);

  for (int round = 0; round < 5000; ++round) {
    const NodeId node = pick_node(rng);
    const std::uint64_t generation = monitor.generation();
    if (pick_op(rng) < 8) {
      const MiBps ips = 2.5 * pick_speed(rng);  // 0 is a legal reading
      monitor.update(node, ips);
      reference[node] = ips;
    } else {
      monitor.forget(node);
      reference[node].reset();
    }
    ASSERT_NE(monitor.generation(), generation) << "round " << round;
    std::size_t known = 0;
    for (NodeId n = 0; n < kNodes; ++n) {
      ASSERT_EQ(monitor.get_speed(n), reference[n])
          << "round " << round << " node " << n;
      known += reference[n].has_value() ? 1 : 0;
    }
    ASSERT_EQ(monitor.known_nodes(), known) << "round " << round;
  }
}

TEST(SpeedMonitor, AllForgottenReturnsToUnknown) {
  SpeedMonitor monitor(4);
  monitor.update(0, 3.0);
  monitor.update(1, 9.0);
  monitor.update(2, 6.0);
  monitor.forget(1);
  monitor.forget(0);
  monitor.forget(2);
  monitor.forget(2);  // forgetting an unknown node keeps the count
  EXPECT_EQ(monitor.known_nodes(), 0u);
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_FALSE(monitor.get_speed(n).has_value()) << n;
  }
}

}  // namespace
}  // namespace flexmr::flexmap
