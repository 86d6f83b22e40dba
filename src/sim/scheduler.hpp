// Discrete-event scheduler with a virtual nanosecond clock.
//
// Every component of the simulated cluster (shards, clients, NICs,
// coordinators, background reclaimers) advances by scheduling callbacks
// here. Events with equal timestamps execute in scheduling order (stable
// (time, seq) ordering), which together with seeded RNGs makes entire runs
// deterministic (DESIGN.md §6).
//
// The queue holds live events only: an indexed binary heap keyed by
// (time, seq) whose slots record their heap position, so cancel() removes
// an event on the spot instead of leaving a dead entry to be skipped when
// its time comes. Events may carry an owning actor; the scheduler keeps the
// actors' liveness table, and an event whose owner has died is popped and
// counted like any other but never invoked.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/inline_fn.hpp"

namespace hydra::sim {

/// One-shot event callback. 120 bytes hold every closure on the data path
/// (the largest, post_write's commit, carries its payload vector and a
/// CompletionFn); larger closures cost one heap allocation.
using EventFn = InlineFn<void(), 120>;

/// Opaque handle for cancelling a scheduled event.
struct EventId {
  std::uint32_t slot = ~std::uint32_t{0};
  std::uint32_t generation = 0;
  [[nodiscard]] bool valid() const noexcept { return slot != ~std::uint32_t{0}; }
};

/// Index into the scheduler's actor liveness table. Ids are never reused.
using ActorId = std::uint32_t;
/// Owner of events no actor owns; always alive.
inline constexpr ActorId kNoActor = 0;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute virtual time `when` (clamped to now()). If
  /// `owner` has died by then the event is popped and counted but `fn` is
  /// not invoked.
  EventId at(Time when, EventFn fn, ActorId owner = kNoActor);
  /// Schedules `fn` after `delay` nanoseconds of virtual time.
  EventId after(Duration delay, EventFn fn, ActorId owner = kNoActor) {
    return at(now_ + delay, std::move(fn), owner);
  }

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId id) noexcept;

  /// Executes the next event. Returns false when the queue is empty.
  bool step();
  /// Runs until the event queue drains.
  void run();
  /// Runs events with timestamp <= deadline; the clock ends at `deadline`
  /// even if the queue drains earlier.
  void run_until(Time deadline);
  /// Convenience: run_until(now() + d).
  void run_for(Duration d) { run_until(now_ + d); }

  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Registers a live actor (see Actor) and returns its id.
  ActorId add_actor();
  /// Marks `id` dead: its pending and future events are dropped.
  void retire_actor(ActorId id) noexcept { actor_alive_[id] = 0; }
  [[nodiscard]] bool actor_alive(ActorId id) const noexcept { return actor_alive_[id] != 0; }

 private:
  struct HeapEntry {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 0;
    ActorId owner = kNoActor;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }
  void place(std::size_t pos, const HeapEntry& e) noexcept {
    heap_[pos] = e;
    heap_pos_[e.slot] = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos) noexcept;
  void sift_down(std::size_t pos) noexcept;
  /// Removes the heap entry at `pos`, keeping the heap property.
  void erase_at(std::size_t pos) noexcept;
  /// Frees `slot` for reuse; stale EventIds naming it stop matching.
  void release(std::uint32_t slot) noexcept;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<Slot> slots_;
  /// Heap position of each slot's event; kIdle while the slot is free.
  std::vector<std::uint32_t> heap_pos_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint8_t> actor_alive_{1};  // kNoActor is always alive
};

}  // namespace hydra::sim
