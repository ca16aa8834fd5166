#include "simcore/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"
#include "obs/profiler.hpp"

namespace flexmr {

EventId Simulator::schedule_at(SimTime t, Handler handler) {
  FLEXMR_ASSERT_MSG(t >= now_, "cannot schedule event in the past");
  FLEXMR_ASSERT(static_cast<bool>(handler));

  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].handler = std::move(handler);
  const EventId id =
      (static_cast<EventId>(slots_[slot].generation) << 32) | slot;

  queue_.push_back(QueueEntry{t, next_seq_++, id});
  std::push_heap(queue_.begin(), queue_.end(), EntryAfter{});
  ++live_count_;
  ++counters_.scheduled;
  counters_.queue_peak =
      std::max<std::uint64_t>(counters_.queue_peak, queue_.size());
  return id;
}

void Simulator::release_slot(std::uint32_t slot) {
  // Generation stays non-zero across wraps so an id of 0 is never issued
  // (slot 0, generation 0 would collide with kInvalidEvent).
  if (++slots_[slot].generation == 0) slots_[slot].generation = 1;
  free_slots_.push_back(slot);
  --live_count_;
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size() || slots_[slot].generation != generation_of(id)) {
    return false;  // already fired or cancelled
  }
  slots_[slot].handler.reset();
  release_slot(slot);
  ++counters_.cancelled;
  ++dead_in_queue_;  // the queue entry is skipped lazily — or compacted:
  if (dead_in_queue_ > live_count_ && queue_.size() >= kCompactMinEntries) {
    compact();
  }
  return true;
}

void Simulator::compact() {
  FLEXMR_PROF_SCOPE("sim/compact");
  std::erase_if(queue_,
                [this](const QueueEntry& entry) { return !pending(entry.id); });
  std::make_heap(queue_.begin(), queue_.end(), EntryAfter{});
  dead_in_queue_ = 0;
  ++counters_.compactions;
  FLEXMR_LOG(Debug, "sim") << "compacted event queue at t=" << now_
                           << " (live=" << live_count_
                           << ", compactions=" << counters_.compactions
                           << ")";
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.front();
    std::pop_heap(queue_.begin(), queue_.end(), EntryAfter{});
    queue_.pop_back();
    const std::uint32_t slot = slot_of(entry.id);
    if (slots_[slot].generation != generation_of(entry.id)) {
      --dead_in_queue_;  // cancelled residue
      continue;
    }
    // Detach before invoking: the handler may schedule into (and reuse)
    // this very slot.
    Handler handler = std::move(slots_[slot].handler);
    slots_[slot].handler.reset();
    release_slot(slot);
    FLEXMR_ASSERT(entry.time >= now_);
    now_ = entry.time;
    ++counters_.fired;
    {
      FLEXMR_PROF_SCOPE("sim/dispatch");
      handler();
    }
    return true;
  }
  return false;
}

void Simulator::run(std::uint64_t max_events) {
  // Exactly `max_events` events may fire; event max_events + 1 must not.
  for (std::uint64_t fired = 0; fired < max_events; ++fired) {
    if (!step()) return;
  }
  if (live_events() > 0) {
    throw InvariantError("simulation exceeded max_events — likely a loop");
  }
}

void Simulator::run_until(SimTime t) {
  FLEXMR_ASSERT(t >= now_);
  while (!queue_.empty()) {
    const QueueEntry entry = queue_.front();
    if (!pending(entry.id)) {
      std::pop_heap(queue_.begin(), queue_.end(), EntryAfter{});
      queue_.pop_back();
      --dead_in_queue_;
      continue;
    }
    if (entry.time > t) break;
    step();
  }
  now_ = t;
}

}  // namespace flexmr
