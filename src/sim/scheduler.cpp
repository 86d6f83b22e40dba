#include "sim/scheduler.hpp"

#include <utility>

namespace hydra::sim {
namespace {

constexpr std::uint32_t kIdle = ~std::uint32_t{0};

}  // namespace

EventId Scheduler::at(Time when, EventFn fn, ActorId owner) {
  if (when < now_) when = now_;
  std::uint32_t slot = 0;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    heap_pos_.push_back(kIdle);
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.owner = owner;
  heap_.push_back(HeapEntry{when, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  return EventId{slot, s.generation};
}

void Scheduler::cancel(EventId id) noexcept {
  if (!id.valid() || id.slot >= slots_.size()) return;
  Slot& s = slots_[id.slot];
  if (s.generation != id.generation || heap_pos_[id.slot] == kIdle) return;
  erase_at(heap_pos_[id.slot]);
  s.fn = nullptr;
  release(id.slot);
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  erase_at(0);
  Slot& s = slots_[top.slot];
  now_ = top.when;
  // Move the callback out before running it: it may schedule events that
  // reuse this slot or grow slots_.
  EventFn fn = std::move(s.fn);
  const bool run = actor_alive(s.owner);
  release(top.slot);
  ++executed_;
  if (run) fn();
  return true;
}

void Scheduler::run() {
  while (step()) {
  }
}

void Scheduler::run_until(Time deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

ActorId Scheduler::add_actor() {
  actor_alive_.push_back(1);
  return static_cast<ActorId>(actor_alive_.size() - 1);
}

void Scheduler::sift_up(std::size_t pos) noexcept {
  const HeapEntry e = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, e);
}

void Scheduler::sift_down(std::size_t pos) noexcept {
  const HeapEntry e = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, e);
}

void Scheduler::erase_at(std::size_t pos) noexcept {
  heap_pos_[heap_[pos].slot] = kIdle;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  heap_[pos] = last;
  if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Scheduler::release(std::uint32_t slot) noexcept {
  ++slots_[slot].generation;
  free_slots_.push_back(slot);
}

}  // namespace hydra::sim
