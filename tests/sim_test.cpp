// Unit tests for the discrete-event scheduler, actors and simulated mutex.
#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/actor.hpp"
#include "sim/inline_fn.hpp"
#include "sim/mutex.hpp"
#include "sim/scheduler.hpp"

namespace hydra::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(30, [&] { order.push_back(3); });
  s.at(10, [&] { order.push_back(1); });
  s.at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Scheduler, TiesBreakInSchedulingOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.at(100, [&order, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, PastTimestampsClampToNow) {
  Scheduler s;
  Time fired = ~Time{0};
  s.at(100, [&] {
    s.at(50, [&] { fired = s.now(); });  // in the past
  });
  s.run();
  EXPECT_EQ(fired, 100u);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.after(5, chain);
  };
  s.after(5, chain);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 500u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.at(10, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_executed(), 0u);
}

TEST(Scheduler, CancelAfterFireIsSafe) {
  Scheduler s;
  const EventId id = s.at(10, [] {});
  s.run();
  s.cancel(id);  // must not crash or corrupt
  bool fired = false;
  s.at(20, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, SlotReuseDoesNotResurrectCancelledEvents) {
  Scheduler s;
  const EventId first = s.at(10, [] { FAIL() << "cancelled event fired"; });
  s.cancel(first);
  // New events may reuse the slot; cancelling the stale id must not hit them.
  bool fired = false;
  s.at(5, [&] { fired = true; });
  s.cancel(first);  // stale handle, different generation
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  std::vector<Time> fired;
  s.at(10, [&] { fired.push_back(s.now()); });
  s.at(20, [&] { fired.push_back(s.now()); });
  s.at(30, [&] { fired.push_back(s.now()); });
  s.run_until(20);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(s.now(), 20u);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired.size(), 3u);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler s;
  s.run_until(5000);
  EXPECT_EQ(s.now(), 5000u);
}

TEST(Scheduler, PendingCountsLiveEventsOnly) {
  Scheduler s;
  const EventId a = s.at(10, [] {});
  s.at(20, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, DeterministicAcrossRuns) {
  auto trace = [] {
    Scheduler s;
    std::vector<std::pair<Time, int>> t;
    for (int i = 0; i < 50; ++i) {
      s.at(static_cast<Time>((i * 37) % 100), [&t, &s, i] { t.emplace_back(s.now(), i); });
    }
    s.run();
    return t;
  };
  EXPECT_EQ(trace(), trace());
}

// ------------------------------------------------------- model check

// Naive reference: a sorted map keyed by (time, seq), each entry carrying
// the tag of the event it stands for.
class RefScheduler {
 public:
  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  void at(Time when, int tag) {
    const std::pair<Time, std::uint64_t> key{std::max(when, now_), seq_++};
    queue_[key] = tag;
    where_[tag] = key;
  }
  void cancel(int tag) {
    const auto it = where_.find(tag);
    if (it == where_.end()) return;
    queue_.erase(it->second);
    where_.erase(it);
  }
  template <typename Fire>
  bool step(Fire&& fire) {
    if (queue_.empty()) return false;
    const auto it = queue_.begin();
    now_ = it->first.first;
    const int tag = it->second;
    where_.erase(tag);
    queue_.erase(it);
    ++executed_;
    fire(tag);
    return true;
  }
  template <typename Fire>
  void run_until(Time deadline, Fire&& fire) {
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) step(fire);
    now_ = std::max(now_, deadline);
  }

 private:
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::map<std::pair<Time, std::uint64_t>, int> queue_;
  std::map<int, std::pair<Time, std::uint64_t>> where_;
};

// One seeded program run against either scheduler. Every event, when it
// fires, logs (tag, now) and then -- from an RNG keyed by (seed, tag), so
// both sides make the same choices -- schedules up to two children (often
// at the current instant, to pile up ties) and cancels a random tag, which
// may be live, already fired (its slot possibly reused) or cancelled.
template <typename Side>
struct Program {
  Side& side;
  std::uint64_t seed;
  int next_tag = 0;
  std::vector<std::pair<int, Time>> log;

  static constexpr int kMaxTags = 600;

  void schedule(Time when) {
    if (next_tag < kMaxTags) side.at(when, next_tag++);
  }
  void fire(int tag) {
    log.emplace_back(tag, side.now());
    Xoshiro256 rng(seed * 1000003 + static_cast<std::uint64_t>(tag));
    const auto children = rng() % 3;
    for (std::uint64_t i = 0; i < children; ++i) {
      schedule(side.now() + (rng() % 3 == 0 ? 0 : rng() % 40));
    }
    if (rng() % 3 == 0) side.cancel(static_cast<int>(rng() % static_cast<std::uint64_t>(next_tag)));
  }
};

struct RealSide {
  Scheduler s;
  std::vector<EventId> handles;
  Program<RealSide>* prog = nullptr;

  [[nodiscard]] Time now() const { return s.now(); }
  void at(Time when, int tag) {
    handles.resize(std::max<std::size_t>(handles.size(), static_cast<std::size_t>(tag) + 1));
    handles[static_cast<std::size_t>(tag)] = s.at(when, [this, tag] { prog->fire(tag); });
  }
  void cancel(int tag) { s.cancel(handles[static_cast<std::size_t>(tag)]); }
};

struct RefSide {
  RefScheduler s;
  Program<RefSide>* prog = nullptr;

  [[nodiscard]] Time now() const { return s.now(); }
  void at(Time when, int tag) { s.at(when, tag); }
  void cancel(int tag) { s.cancel(tag); }
};

TEST(Scheduler, MatchesNaiveReferenceOnRandomSequences) {
  for (std::uint64_t seed = 1; seed <= 256; ++seed) {
    RealSide real;
    RefSide ref;
    Program<RealSide> rp{real, seed, 0, {}};
    Program<RefSide> fp{ref, seed, 0, {}};
    real.prog = &rp;
    ref.prog = &fp;
    auto ref_fire = [&fp](int tag) { fp.fire(tag); };

    Xoshiro256 driver(seed);
    for (int op = 0; op < 300; ++op) {
      switch (driver() % 6) {
        case 0: {  // absolute time, sometimes in the past (clamped)
          const Time when = driver() % (real.now() + 100);
          rp.schedule(when);
          fp.schedule(when);
          break;
        }
        case 1: {  // relative, often zero for same-time ties
          const Time when = real.now() + (driver() % 2 == 0 ? 0 : driver() % 60);
          rp.schedule(when);
          fp.schedule(when);
          break;
        }
        case 2:
          if (rp.next_tag > 0) {
            const int tag = static_cast<int>(driver() % static_cast<std::uint64_t>(rp.next_tag));
            real.cancel(tag);
            ref.cancel(tag);
          }
          break;
        case 3: {
          const Time deadline = real.now() + driver() % 50;
          real.s.run_until(deadline);
          ref.s.run_until(deadline, ref_fire);
          break;
        }
        default: {
          const bool a = real.s.step();
          const bool b = ref.s.step(ref_fire);
          ASSERT_EQ(a, b) << "seed " << seed << " op " << op;
          break;
        }
      }
      ASSERT_EQ(real.s.now(), ref.s.now()) << "seed " << seed << " op " << op;
      ASSERT_EQ(real.s.pending(), ref.s.pending()) << "seed " << seed << " op " << op;
      ASSERT_EQ(real.s.events_executed(), ref.s.events_executed())
          << "seed " << seed << " op " << op;
    }
    real.s.run();
    while (ref.s.step(ref_fire)) {
    }
    ASSERT_EQ(rp.log, fp.log) << "seed " << seed;
    ASSERT_EQ(real.s.now(), ref.s.now()) << "seed " << seed;
    ASSERT_EQ(real.s.events_executed(), ref.s.events_executed()) << "seed " << seed;
    EXPECT_EQ(real.s.pending(), 0u);
  }
}

TEST(Scheduler, CancelFromInsideAnEventRemovesItAtOnce) {
  Scheduler s;
  bool fired = false;
  const EventId later = s.at(50, [&] { fired = true; });
  s.at(10, [&] {
    EXPECT_EQ(s.pending(), 1u);
    s.cancel(later);
    EXPECT_EQ(s.pending(), 0u);
  });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.now(), 10u);  // no dead entry left to pop at t=50
  EXPECT_EQ(s.events_executed(), 1u);
}

// ------------------------------------------------------------ callables

// Counts destructions of the one live instance; moved-from copies do not
// count.
struct DestroyCounter {
  explicit DestroyCounter(int* n) : count(n) {}
  DestroyCounter(DestroyCounter&& o) noexcept : count(std::exchange(o.count, nullptr)) {}
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  DestroyCounter(const DestroyCounter&) = delete;
  ~DestroyCounter() {
    if (count != nullptr) ++*count;
  }
  int* count;
};

struct Padding {
  std::array<char, 200> bytes{};
};

TEST(InlineFn, SmallCapturesStayInlineLargeOnesFallBackToTheHeap) {
  int hits = 0;
  auto small = [&hits] { ++hits; };
  auto large = [&hits, pad = Padding{}] { hits += 1 + pad.bytes[0]; };
  static_assert(EventFn::stores_inline<decltype(small)>);
  static_assert(!EventFn::stores_inline<decltype(large)>);
  EventFn a = small;
  EventFn b = large;
  EventFn moved_a = std::move(a);
  EventFn moved_b = std::move(b);
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
  moved_a();
  moved_b();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, AcceptsMoveOnlyCapturesAndArguments) {
  auto box = std::make_unique<int>(41);
  InlineFn<int(std::unique_ptr<int>), 40> add =
      [box = std::move(box)](std::unique_ptr<int> extra) { return *box + *extra; };
  EXPECT_EQ(add(std::make_unique<int>(1)), 42);
  int got = 0;
  EventFn take = [p = std::make_unique<int>(7), &got]() mutable {
    const std::unique_ptr<int> mine = std::move(p);
    got = *mine;
  };
  take();
  EXPECT_EQ(got, 7);
}

TEST(InlineFn, EmptyStdFunctionAndNullptrStayEmpty) {
  const std::function<void()> empty;
  const EventFn a = empty;
  const EventFn b = nullptr;
  EXPECT_FALSE(a);
  EXPECT_FALSE(b);
}

TEST(Scheduler, CapturesAreDestroyedExactlyOnce) {
  for (const bool inline_capture : {true, false}) {
    int fired = 0;
    int cancelled = 0;
    int abandoned = 0;
    auto make = [&](int* n) -> EventFn {
      if (inline_capture) return [c = DestroyCounter(n)] {};
      return [c = DestroyCounter(n), pad = Padding{}] {};
    };
    {
      Scheduler s;
      s.at(10, make(&fired));
      const EventId id = s.at(20, make(&cancelled));
      s.at(30, make(&abandoned));
      s.run_until(10);
      EXPECT_EQ(fired, 1);
      s.cancel(id);
      EXPECT_EQ(cancelled, 1);
      s.cancel(id);  // stale: nothing left to destroy
      EXPECT_EQ(abandoned, 0);
    }  // destroyed with the t=30 event still pending
    EXPECT_EQ(fired, 1) << inline_capture;
    EXPECT_EQ(cancelled, 1) << inline_capture;
    EXPECT_EQ(abandoned, 1) << inline_capture;
  }
}

// ---------------------------------------------------------------- actor

TEST(Actor, ScheduledCallbackRunsWhileAlive) {
  Scheduler s;
  Actor a(s, "a");
  bool fired = false;
  a.schedule_after(10, [&] { fired = true; });
  s.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(a.name(), "a");
}

TEST(Actor, KillDropsPendingCallbacks) {
  Scheduler s;
  Actor a(s, "victim");
  bool fired = false;
  a.schedule_after(10, [&] { fired = true; });
  s.at(5, [&] { a.kill(); });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(a.alive());
}

TEST(Actor, DestructionDropsPendingCallbacks) {
  Scheduler s;
  bool fired = false;
  {
    Actor a(s, "scoped");
    a.schedule_after(10, [&] { fired = true; });
  }
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Actor, GuardWrapsForeignCallbacks) {
  Scheduler s;
  Actor a(s, "guarded");
  bool fired = false;
  auto guarded = a.guard([&] { fired = true; });
  a.kill();
  s.at(1, guarded);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Actor, SelfReschedulingLoopStopsOnKill) {
  Scheduler s;
  Actor a(s, "looper");
  int ticks = 0;
  std::function<void()> loop = [&] {
    ++ticks;
    a.schedule_after(10, loop);
  };
  a.schedule_after(10, loop);
  s.at(55, [&] { a.kill(); });
  s.run();
  EXPECT_EQ(ticks, 5);  // t=10..50
}

TEST(Actor, DeadOwnersEventIsCountedButNotRun) {
  Scheduler s;
  Actor a(s, "dead");
  bool fired = false;
  a.schedule_after(10, [&] { fired = true; });
  a.schedule_at(20, [&] { fired = true; });
  a.kill();
  EXPECT_EQ(s.pending(), 2u);
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.events_executed(), 2u);  // popped and counted like any event
  EXPECT_EQ(s.now(), 20u);             // and the clock still advanced
}

TEST(Actor, GuardAfterDestructionIsANoOp) {
  Scheduler s;
  int calls = 0;
  auto actor = std::make_unique<Actor>(s, "short-lived");
  auto guarded = actor->guard([&calls](int n) { calls += n; });
  guarded(1);
  actor.reset();
  guarded(1);
  EXPECT_EQ(calls, 1);
  // A later actor gets a fresh id: the dead one's guard stays dead.
  Actor successor(s, "successor");
  guarded(1);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(successor.alive());
}

// ---------------------------------------------------------------- mutex

TEST(SimMutex, UncontendedAcquireIsImmediate) {
  Scheduler s;
  SimMutex m(s);
  Time acquired = ~Time{0};
  s.at(100, [&] { m.lock([&] { acquired = s.now(); }); });
  s.run();
  EXPECT_EQ(acquired, 100u);
  EXPECT_TRUE(m.locked());
  EXPECT_EQ(m.contended_acquires(), 0u);
}

TEST(SimMutex, ContendedAcquiresQueueFifoWithHandoffCost) {
  Scheduler s;
  SimMutex m(s, /*handoff_cost=*/80);
  std::vector<int> order;
  std::vector<Time> times;
  auto worker = [&](int id, Duration hold) {
    m.lock([&, id, hold] {
      order.push_back(id);
      times.push_back(s.now());
      s.after(hold, [&] { m.unlock(); });
    });
  };
  s.at(0, [&] { worker(0, 1000); });
  s.at(1, [&] { worker(1, 1000); });
  s.at(2, [&] { worker(2, 1000); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(times[1], 1000u + 80u);
  EXPECT_EQ(times[2], 1000u + 80u + 1000u + 80u);
  EXPECT_EQ(m.contended_acquires(), 2u);
  EXPECT_GT(m.total_wait(), 0u);
  EXPECT_FALSE(m.locked());
}

TEST(SimMutex, UnlockWithNoWaitersReleases) {
  Scheduler s;
  SimMutex m(s);
  s.at(0, [&] { m.lock([&] { m.unlock(); }); });
  s.run();
  EXPECT_FALSE(m.locked());
  Time second = 0;
  s.at(10, [&] { m.lock([&] { second = s.now(); }); });
  s.run();
  EXPECT_EQ(second, 10u);
}

TEST(SimMutex, SerializationThroughputMatchesHoldTime) {
  // N workers each holding the lock for H ns finish in ~N*(H+handoff).
  Scheduler s;
  SimMutex m(s, 50);
  constexpr int kWorkers = 20;
  constexpr Duration kHold = 500;
  int done = 0;
  for (int i = 0; i < kWorkers; ++i) {
    s.at(0, [&] {
      m.lock([&] { s.after(kHold, [&] { m.unlock(); ++done; }); });
    });
  }
  s.run();
  EXPECT_EQ(done, kWorkers);
  EXPECT_NEAR(static_cast<double>(s.now()), kWorkers * (500.0 + 50.0), 100.0);
}

}  // namespace
}  // namespace hydra::sim
