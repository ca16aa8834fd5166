// Discrete-event simulation core.
//
// A Simulator owns a virtual clock and a priority queue of scheduled
// events. Event ordering is total and deterministic: ties on time break by
// schedule order (a monotone sequence number), so a run is bit-reproducible
// given the same inputs. Events are cancellable: cancel() detaches the
// handler and the queue entry is skipped lazily when popped — this is the
// mechanism task-completion re-estimation is built on (see RateIntegrator).
//
// Hot-path layout (see DESIGN.md "Performance model"): handlers live in a
// slot table indexed by the low half of the EventId, with a generation
// counter in the high half guarding against stale ids — schedule/cancel/
// fire are O(lg n) heap work plus O(1) slot bookkeeping with no hashing
// and, for the small lambdas every caller uses, no allocation (EventHandler
// stores them inline). Lazily-cancelled queue entries are compacted away
// once they outnumber live events, so heavy re-estimation churn cannot grow
// the heap without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace flexmr {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

/// Lifetime counters of one Simulator, for observability exports: how much
/// work the event queue did and how deep it got. `queue_peak` counts raw
/// queue entries (lazily-cancelled ones included), which is what memory
/// pressure actually tracks; `compactions` counts the sweeps that rebuilt
/// the heap to evict cancelled residue.
struct SimCounters {
  std::uint64_t scheduled = 0;
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t queue_peak = 0;
  std::uint64_t compactions = 0;
};

/// Move-only callable with inline storage sized for the simulator's actual
/// handlers (a `[this]` / `[this, id]` lambda); larger captures fall back
/// to the heap. Replaces std::function on the schedule path, where the
/// per-event allocation dominated cost at scale.
class EventHandler {
 public:
  static constexpr std::size_t kInlineSize = 48;

  EventHandler() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventHandler>>>
  EventHandler(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = inline_ops<Fn>();
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = heap_ops<Fn>();
    }
  }

  EventHandler(EventHandler&& other) noexcept { steal(other); }
  EventHandler& operator=(EventHandler&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  EventHandler(const EventHandler&) = delete;
  EventHandler& operator=(const EventHandler&) = delete;
  ~EventHandler() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() {
    FLEXMR_ASSERT(ops_ != nullptr);
    ops_->invoke(storage_);
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static const Ops* inline_ops() {
    static constexpr Ops ops{
        [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
        [](void* dst, void* src) {
          Fn* from = std::launder(reinterpret_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*from));
          from->~Fn();
        },
        [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); }};
    return &ops;
  }

  template <typename Fn>
  static const Ops* heap_ops() {
    static constexpr Ops ops{
        [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); },
        [](void* dst, void* src) {
          ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
        },
        [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); }};
    return &ops;
  }

  void steal(EventHandler& other) {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  using Handler = EventHandler;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `handler` to fire at absolute time `t` (>= now).
  EventId schedule_at(SimTime t, Handler handler);

  /// Schedules `handler` to fire `delay` seconds from now (delay >= 0).
  EventId schedule_after(SimDuration delay, Handler handler) {
    return schedule_at(now_ + delay, std::move(handler));
  }

  /// Cancels a pending event; returns false if it already fired or was
  /// cancelled (safe to call redundantly).
  bool cancel(EventId id);

  bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() &&
           slots_[slot].generation == generation_of(id);
  }

  /// Number of live (non-cancelled) scheduled events.
  std::size_t live_events() const { return live_count_; }

  /// Lifetime schedule/fire/cancel counts and the queue high-water mark.
  SimCounters counters() const { return counters_; }

  /// Fires the next event; returns false when the queue is exhausted.
  bool step();

  /// Runs until no events remain. `max_events` guards against runaway
  /// simulations: at most `max_events` events fire, and if live events
  /// still remain once the budget is spent, InvariantError is thrown.
  void run(std::uint64_t max_events = 500'000'000ULL);

  /// Runs events with time <= t, then sets the clock to exactly t.
  void run_until(SimTime t);

 private:
  struct QueueEntry {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    bool operator>(const QueueEntry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  /// Min-heap ordering for std::push_heap/pop_heap.
  struct EntryAfter {
    bool operator()(const QueueEntry& a, const QueueEntry& b) const {
      return a > b;
    }
  };

  /// One handler slot. `generation` (always non-zero) is bumped whenever
  /// the slot's event completes (fires or is cancelled), so ids held by
  /// callers go stale the moment the event is gone.
  struct Slot {
    std::uint32_t generation = 1;
    EventHandler handler;
  };

  /// Compaction is worth a full heap rebuild only once the queue is mostly
  /// dead weight; below this size the residue is too small to matter and
  /// small runs keep byte-identical queue_peak traces.
  static constexpr std::size_t kCompactMinEntries = 2048;

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Frees a slot (handler already disposed of by the caller).
  void release_slot(std::uint32_t slot);

  /// Rebuilds the heap with only live entries.
  void compact();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  SimCounters counters_;
  std::vector<QueueEntry> queue_;  ///< Binary min-heap on (time, seq).
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  /// Cancelled entries still sitting in the queue awaiting a lazy skip
  /// (or a compaction sweep).
  std::size_t dead_in_queue_ = 0;
};

}  // namespace flexmr
