// Actor base: a simulated process whose pending callbacks die with it.
//
// Killing an actor (crash injection, failover tests) atomically invalidates
// everything it scheduled, mirroring a real process whose threads stop
// executing at crash time. Liveness lives in the scheduler's actor table,
// so the scheduler must outlive its actors and anything holding a guard().
#pragma once

#include <string>
#include <utility>

#include "sim/scheduler.hpp"

namespace hydra::sim {

class Actor {
 public:
  Actor(Scheduler& sched, std::string name)
      : sched_(sched), name_(std::move(name)), id_(sched.add_actor()) {}
  virtual ~Actor() { sched_.retire_actor(id_); }

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool alive() const noexcept { return sched_.actor_alive(id_); }
  [[nodiscard]] Scheduler& scheduler() noexcept { return sched_; }
  [[nodiscard]] Time now() const noexcept { return sched_.now(); }

  /// Simulates a process crash: pending and future callbacks are dropped.
  virtual void kill() { sched_.retire_actor(id_); }

  /// Wraps any callable so it only runs while this actor is alive. Useful
  /// when handing callbacks to other components (NIC completion handlers,
  /// memory-region write hooks, coordinator watches).
  template <typename F>
  [[nodiscard]] auto guard(F fn) const {
    return [sched = &sched_, id = id_, fn = std::move(fn)](auto&&... args) mutable {
      if (sched->actor_alive(id)) fn(std::forward<decltype(args)>(args)...);
    };
  }

  /// Schedules `fn` after `delay`, skipped if this actor has died meanwhile.
  EventId schedule_after(Duration delay, EventFn fn) {
    return sched_.after(delay, std::move(fn), id_);
  }
  EventId schedule_at(Time when, EventFn fn) { return sched_.at(when, std::move(fn), id_); }

 private:
  Scheduler& sched_;
  std::string name_;
  ActorId id_;
};

}  // namespace hydra::sim
