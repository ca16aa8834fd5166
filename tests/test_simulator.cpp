// Unit tests for the discrete-event core: ordering, cancellation,
// determinism, and the run/run_until protocol.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simcore/simulator.hpp"

namespace flexmr {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, FiresEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&]() { order.push_back(3); });
  sim.schedule_at(1.0, [&]() { order.push_back(1); });
  sim.schedule_at(2.0, [&]() { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, TiesBreakByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i]() { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.schedule_at(10.0, [&]() {
    sim.schedule_after(5.0, [&]() { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&]() { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, []() {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelAfterFiringReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, []() {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&]() {
    ++count;
    if (count < 5) sim.schedule_after(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndSetsClock) {
  Simulator sim;
  std::vector<SimTime> fired;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [&, i]() {
      fired.push_back(static_cast<SimTime>(i));
    });
  }
  sim.run_until(3.5);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.5);
  sim.run();
  EXPECT_EQ(fired.size(), 5u);
}

TEST(Simulator, RunUntilIncludesEventsAtExactBoundary) {
  Simulator sim;
  bool fired = false;
  sim.schedule_at(2.0, [&]() { fired = true; });
  sim.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, []() {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(1.0, []() {}), InvariantError);
}

TEST(Simulator, RunawayGuardThrows) {
  Simulator sim;
  std::function<void()> forever = [&]() { sim.schedule_after(1.0, forever); };
  sim.schedule_at(0.0, forever);
  EXPECT_THROW(sim.run(1000), InvariantError);
}

TEST(Simulator, LiveEventsTracksCancellations) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, []() {});
  sim.schedule_at(2.0, []() {});
  EXPECT_EQ(sim.live_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.live_events(), 1u);
}

TEST(Simulator, RunBudgetAllowsExactlyMaxEvents) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [&]() { ++fired; });
  }
  sim.run(5);  // budget equals live events: all fire, no throw
  EXPECT_EQ(fired, 5);
}

TEST(Simulator, RunBudgetRejectsEventMaxPlusOne) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(static_cast<SimTime>(i), [&]() { ++fired; });
  }
  EXPECT_THROW(sim.run(5), InvariantError);
  EXPECT_EQ(fired, 5);  // the bound is exact: event 6 never ran
}

TEST(Simulator, RunBudgetIgnoresCancelledQueueResidue) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(0.0, [&]() { ++fired; });
  const EventId dead = sim.schedule_at(1.0, [&]() { ++fired; });
  sim.cancel(dead);
  sim.run(1);  // the lazily-cancelled entry is not a live event
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelChurnCompactsQueueAndBoundsPeak) {
  Simulator sim;
  // A small live set under heavy schedule/cancel churn: the lazily-
  // cancelled residue must be swept out, not accumulate. Before the
  // compaction policy this left ~100k dead entries in the heap and
  // queue_peak grew with the churn count instead of the live count.
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(1e9 + i, []() {});
  }
  for (int i = 0; i < 100000; ++i) {
    const EventId id = sim.schedule_at(1e6 + i, []() {});
    EXPECT_TRUE(sim.cancel(id));
  }
  const auto counters = sim.counters();
  EXPECT_GT(counters.compactions, 0u);
  // Dead entries are allowed up to the compaction threshold, never the
  // full churn volume.
  EXPECT_LE(counters.queue_peak, 4096u);
  EXPECT_EQ(sim.live_events(), 8u);
  sim.run();
  EXPECT_EQ(sim.counters().fired, 8u);
  EXPECT_EQ(sim.counters().cancelled, 100000u);
}

TEST(Simulator, StaleIdDoesNotCancelSlotReusingEvent) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule_at(1.0, [&]() { ++fired; });
  ASSERT_TRUE(sim.cancel(a));
  // b recycles a's slot; the stale id must not alias the new event.
  const EventId b = sim.schedule_at(2.0, [&]() { ++fired; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_FALSE(sim.pending(a));
  EXPECT_TRUE(sim.pending(b));
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, OrderingSurvivesCompaction) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    sim.schedule_at(1e7 + i, [&order, i]() { order.push_back(i); });
  }
  // Force several compaction sweeps while the live events sit in the heap.
  for (int i = 0; i < 20000; ++i) {
    sim.cancel(sim.schedule_at(1e6, []() {}));
  }
  EXPECT_GT(sim.counters().compactions, 0u);
  sim.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, CountersTrackScheduleFireCancelAndPeak) {
  Simulator sim;
  const EventId a = sim.schedule_at(1.0, []() {});
  sim.schedule_at(2.0, []() {});
  sim.schedule_at(3.0, []() {});
  sim.cancel(a);
  sim.run();
  const auto counters = sim.counters();
  EXPECT_EQ(counters.scheduled, 3u);
  EXPECT_EQ(counters.fired, 2u);
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(counters.queue_peak, 3u);
}

// Pins the full run_until(t) boundary contract: every event with time
// exactly t fires —
// including one scheduled *at t, during the call* by another boundary
// event — in schedule (seq) order, events past t stay queued, and the
// clock lands exactly on t even though the last fired event was at t.
TEST(Simulator, RunUntilBoundaryFiresAtTInSeqOrderIncludingNewlyScheduled) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(10.0, [&]() { fired.push_back(1); });
  sim.schedule_at(10.0, [&]() {
    fired.push_back(2);
    sim.schedule_at(10.0, [&]() { fired.push_back(4); });
  });
  sim.schedule_at(10.0, [&]() { fired.push_back(3); });
  sim.schedule_at(10.0 + 1e-9, [&]() { fired.push_back(99); });
  sim.run_until(10.0);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.now(), 10.0);  // exactly t, not the last event time
  sim.run();
  EXPECT_EQ(fired.back(), 99);
}

// run_until past an empty queue, or with only cancelled residue in front,
// still advances the clock to exactly t (dead entries are popped even
// beyond t).
TEST(Simulator, RunUntilAdvancesClockThroughCancelledResidue) {
  Simulator sim;
  const EventId dead = sim.schedule_at(5.0, []() {});
  sim.cancel(dead);
  sim.run_until(3.0);
  EXPECT_EQ(sim.now(), 3.0);
  sim.run_until(7.0);
  EXPECT_EQ(sim.now(), 7.0);
  EXPECT_EQ(sim.live_events(), 0u);
}

// run_until partway through the queue leaves the later events pending;
// step() then resumes them in order from the clock run_until left.
TEST(Simulator, RunUntilThenStepResumes) {
  Simulator sim;
  std::vector<double> times;
  for (int i = 0; i < 8; ++i) {
    const double t = 1.0 + i;
    sim.schedule_at(t, [&times, t]() { times.push_back(t); });
  }
  sim.run_until(3.5);
  EXPECT_EQ(sim.now(), 3.5);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(sim.live_events(), 5u);
  while (sim.step()) {
  }
  EXPECT_EQ(times,
            (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}));
  EXPECT_EQ(sim.now(), 8.0);
}

// A handler cancelling an event already queued behind it: the victim is
// skipped lazily when popped, and each counter sees it exactly once.
TEST(Simulator, HandlerCancelsLaterQueuedEvent) {
  Simulator sim;
  std::vector<int> fired;
  EventId victim = kInvalidEvent;
  sim.schedule_at(1.0, [&]() {
    fired.push_back(1);
    EXPECT_TRUE(sim.cancel(victim));
  });
  victim = sim.schedule_at(2.0, [&]() { fired.push_back(2); });
  sim.schedule_at(3.0, [&]() { fired.push_back(3); });
  sim.run(100);
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  const auto counters = sim.counters();
  EXPECT_EQ(counters.scheduled, 3u);
  EXPECT_EQ(counters.fired, 2u);
  EXPECT_EQ(counters.cancelled, 1u);
  EXPECT_EQ(counters.queue_peak, 3u);
  EXPECT_EQ(sim.live_events(), 0u);
}

// Over-aligned captures must not take the inline path: kInlineSize would
// fit a 64-byte capture's *size* check on some configurations, but the
// inline buffer is only max_align_t-aligned, so fits_inline must reject
// on alignment and fall back to the heap. Regression for the alignment
// term in EventHandler::fits_inline.
TEST(Simulator, EventHandlerHeapAllocatesOverAlignedCaptures) {
  struct alignas(64) Wide {
    double values[4];
  };
  static_assert(alignof(Wide) > alignof(std::max_align_t));
  Simulator sim;
  Wide wide{{1.0, 2.0, 3.0, 4.0}};
  double seen = 0.0;
  const Wide* observed = nullptr;
  sim.schedule_at(1.0, [wide, &seen, &observed]() {
    observed = &wide;  // address of the capture as the handler sees it
    seen = wide.values[0] + wide.values[1] + wide.values[2] + wide.values[3];
  });
  sim.run();
  EXPECT_EQ(seen, 10.0);
  ASSERT_NE(observed, nullptr);
  // The live capture really was aligned to its extended requirement.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(observed) % alignof(Wide), 0u);
}

// Small, naturally-aligned captures do take the inline path (no heap);
// both storage strategies must survive the move used by event firing.
TEST(Simulator, EventHandlerInlineAndHeapPathsBothFire) {
  Simulator sim;
  int small_hits = 0;
  sim.schedule_at(1.0, [&small_hits]() { ++small_hits; });  // inline
  struct Big {
    char payload[128];  // > kInlineSize: heap path via size, not alignment
  };
  Big big{};
  big.payload[0] = 42;
  char got = 0;
  sim.schedule_at(2.0, [big, &got]() { got = big.payload[0]; });
  sim.run();
  EXPECT_EQ(small_hits, 1);
  EXPECT_EQ(got, 42);
}

}  // namespace
}  // namespace flexmr
