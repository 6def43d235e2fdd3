#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace occamy::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_FALSE(sim.HasPendingEvents());
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(Nanoseconds(30), [&] { order.push_back(3); });
  sim.At(Nanoseconds(10), [&] { order.push_back(1); });
  sim.At(Nanoseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Nanoseconds(30));
}

TEST(SimulatorTest, SameTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.At(Nanoseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim;
  Time seen = -1;
  sim.At(Nanoseconds(10), [&] {
    sim.After(Nanoseconds(5), [&] { seen = sim.now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, Nanoseconds(15));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.At(Nanoseconds(10), [&] { ++fired; });
  sim.At(Nanoseconds(20), [&] { ++fired; });
  sim.At(Nanoseconds(30), [&] { ++fired; });
  sim.RunUntil(Nanoseconds(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), Nanoseconds(20));
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesTimeEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(Microseconds(7));
  EXPECT_EQ(sim.now(), Microseconds(7));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.At(Nanoseconds(10), [&] { ++fired; });
  EXPECT_TRUE(h.IsPending());
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.IsPending());
  EXPECT_FALSE(h.Cancel());  // second cancel is a no-op
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, CancelFromWithinEvent) {
  Simulator sim;
  int fired = 0;
  EventHandle victim = sim.At(Nanoseconds(20), [&] { ++fired; });
  sim.At(Nanoseconds(10), [&] { victim.Cancel(); });
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, ProcessedEventCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.At(Nanoseconds(i), [] {});
  sim.Run();
  EXPECT_EQ(sim.processed_events(), 5u);
}

TEST(SimulatorTest, EventsCanScheduleCascades) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.After(Nanoseconds(1), recurse);
  };
  sim.After(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), Nanoseconds(99));
}

TEST(SimulatorTest, SchedulingIntoPastAborts) {
  Simulator sim;
  sim.At(Nanoseconds(10), [&] {
    EXPECT_DEATH(sim.At(Nanoseconds(5), [] {}), "scheduling into the past");
  });
  sim.Run();
}

TEST(EventQueueTest, SkipsCancelledHeads) {
  EventQueue q;
  auto h1 = q.Push(1, [] {});
  q.Push(2, [] {});
  h1.Cancel();
  EXPECT_FALSE(q.Empty());
  EXPECT_EQ(q.NextTime(), 2);
}

TEST(EventQueueTest, LiveSizeExcludesCancelled) {
  EventQueue q;
  auto h1 = q.Push(10, [] {});
  auto h2 = q.Push(20, [] {});
  q.Push(30, [] {});
  EXPECT_EQ(q.live_size(), 3u);
  h1.Cancel();
  h2.Cancel();
  // live_size/Empty are non-mutating: the dead events still occupy the heap.
  EXPECT_EQ(q.live_size(), 1u);
  EXPECT_EQ(q.SizeForTest(), 3u);
  EXPECT_FALSE(q.Empty());
  Callback cb;
  EXPECT_EQ(q.PopLive(cb), 30);
  EXPECT_EQ(q.live_size(), 0u);
  EXPECT_TRUE(q.Empty());
}

// The heap size below which the queue never compacts.
constexpr size_t kCompactFloor = 64;

TEST(EventQueueTest, CancelHeavyWorkloadKeepsHeapBounded) {
  // Regression test for the cancelled-event leak: a long-lived simulation
  // that keeps cancelling far-future timers (the retransmit-timer pattern)
  // must not grow the heap unboundedly. Lazy compaction bounds the heap at
  // 4/3 of the live count (plus the small compaction floor).
  EventQueue q;
  std::vector<EventHandle> live;
  for (int round = 0; round < 10000; ++round) {
    // Re-arm a timer: cancel the oldest pending, schedule a new far-future
    // one, plus a near event that actually fires.
    live.push_back(q.Push(Nanoseconds(1000000 + round), [] {}));
    if (live.size() > 100) {
      live.front().Cancel();
      live.erase(live.begin());
    }
    q.Push(Nanoseconds(round), [] {});
    Callback cb;
    q.PopLive(cb);
    ASSERT_LE(3 * q.SizeForTest(), 4 * q.live_size() + 3 * kCompactFloor)
        << "heap must stay bounded under cancel churn (round " << round << ")";
  }
  EXPECT_LE(3 * q.SizeForTest(), 4 * q.live_size() + 3 * kCompactFloor);
}

TEST(EventQueueTest, StaleHandleAfterSlotReuseIsNoOp) {
  // Generation safety: once an event fires, its arena slot may be recycled
  // by a new event. The old handle must neither cancel nor report the new
  // occupant.
  EventQueue q;
  EventHandle stale = q.Push(1, [] {});
  Callback cb;
  q.PopLive(cb);  // fires the event; slot 0 goes back to the freelist
  cb();

  int fired = 0;
  q.Push(2, [&] { ++fired; });  // recycles slot 0 with a new generation
  EXPECT_FALSE(stale.IsPending());
  EXPECT_FALSE(stale.Cancel()) << "stale cancel must be a no-op";
  EXPECT_EQ(q.live_size(), 1u) << "the recycled slot's event must survive";
  q.PopLive(cb);
  cb();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, CancelledHandleStaysCancelledAfterReuse) {
  EventQueue q;
  EventHandle h = q.Push(5, [] {});
  EXPECT_TRUE(h.Cancel());
  // Drain the dead head so the slot is recycled.
  q.Push(6, [] {});
  Callback cb;
  q.PopLive(cb);
  EXPECT_TRUE(q.Empty());
  q.Push(7, [] {});
  EXPECT_FALSE(h.Cancel()) << "handle from a previous slot life must stay inert";
  EXPECT_EQ(q.live_size(), 1u);
}

TEST(EventQueueTest, SameTimeFifoOrderSurvivesCancellationAndCompaction) {
  // Determinism: same-time events pop in scheduling order (the contract the
  // old binary heap provided via seq) even after heavy interleaved
  // cancellation has forced compactions.
  std::vector<int> expected_order;
  for (Time t = 100; t < 105; ++t) {
    for (int i = 0; i < 500; ++i) {
      if (i % 3 != 0 && 100 + (i % 5) == t) expected_order.push_back(i);
    }
  }

  EventQueue q;
  std::vector<EventHandle> to_cancel;
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    const Time t = 100 + (i % 5);  // many seq ties per time bucket
    if (i % 3 == 0) {
      to_cancel.push_back(q.Push(t, [] {}));
    } else {
      q.Push(t, [&order, i] { order.push_back(i); });
    }
  }
  for (auto& h : to_cancel) h.Cancel();
  while (!q.Empty()) {
    Callback cb;
    q.PopLive(cb);
    cb();
  }
  EXPECT_EQ(order, expected_order);
}

// A reference model of the queue: the live events by key, (time, order
// word). A local event's order word carries the queue's insertion counter,
// which every local push and every postpone takes the next value of (the
// layout is in src/sim/event_queue.h); a delivery's is DeliveryOrder's. A
// postpone erases the event and re-inserts it under its new key.
struct ReferenceQueue {
  using Key = std::pair<Time, uint64_t>;
  EventQueue q;
  std::map<Key, uint64_t> live;  // key -> push index
  std::vector<EventHandle> handles;  // by push index, fired and cancelled too
  std::vector<Key> keys;             // by push index: the latest key
  std::vector<bool> far;             // by push index: pushed kMaxAhead windows ahead
  std::vector<bool> delivery;        // by push index
  uint64_t next_seq = 0;
  uint64_t fired = 0;                // push index of the last event that ran
  Time now = 0;
  Rng* rng = nullptr;

  static uint64_t LocalOrder(int ahead, uint64_t seq) {
    return (static_cast<uint64_t>(EventQueue::kMaxAhead - ahead)
            << (EventQueue::kTiebreakBits + 1)) |
           (uint64_t{1} << EventQueue::kTiebreakBits) | seq;
  }

  // A callback that records push `id` when it fires and pushes `children`
  // more local events at now + 0..2, ties with queued events included.
  auto Fire(uint64_t id, int children) {
    return [this, id, children] {
      fired = id;
      for (int c = 0; c < children; ++c) {
        Push(now + static_cast<Time>(rng->UniformInt(3)), 0);
      }
    };
  }

  void Record(const Key& key, bool is_far, bool is_delivery) {
    keys.push_back(key);
    far.push_back(is_far);
    delivery.push_back(is_delivery);
    live.emplace(key, handles.size() - 1);
  }

  // Pushes a local event at `t`, `ahead` windows early.
  void Push(Time t, int children, int ahead = 0) {
    handles.push_back(q.PushLocal(t, ahead, Fire(handles.size(), children)));
    Record({t, LocalOrder(ahead, next_seq++)}, ahead == EventQueue::kMaxAhead, false);
  }

  void PushDelivery(Time t, int ahead, uint64_t tiebreak) {
    const uint64_t order = EventQueue::DeliveryOrder(ahead, tiebreak);
    handles.push_back(q.PushOrdered(t, order, Fire(handles.size(), 0)));
    Record({t, order}, false, true);
  }

  // Cancels the handle of push `id`, live or not (fired and cancelled
  // handles are stale: their slot may hold a newer event by now).
  bool Cancel(uint64_t id) {
    const bool was_live = live.erase(keys[id]) > 0;
    EXPECT_EQ(handles[id].Cancel(), was_live) << "push " << id;
    return was_live;
  }

  // Postpones push `id` to `t`, `ahead` windows early. Only a live local
  // event, to a time no earlier than its own, moves.
  bool Postpone(uint64_t id, Time t, int ahead = 0) {
    const auto it = live.find(keys[id]);
    const bool moves = it != live.end() && !delivery[id] && t >= keys[id].first;
    EXPECT_EQ(q.PostponeLocal(handles[id], t, ahead), moves) << "push " << id;
    if (moves) {
      live.erase(it);
      keys[id] = {t, LocalOrder(ahead, next_seq++)};
      live.emplace(keys[id], id);
    }
    return moves;
  }

  Time TimeOf(uint64_t id) const { return keys[id].first; }
};

// Seeded random interleavings of pushes (mostly at a handful of equal
// times), cancels and postpones of live and stale handles, pops, pushes
// from inside fired callbacks and cancel storms that force compactions:
// every pop must return the earliest live event by (time, order word).
// Local events are pushed at every `ahead` up to kMaxAhead, and deliveries
// in time order, as same-time ties in either order, and earlier than the
// latest delivery, so that every path of the queue's three places runs:
// FIFO appends, ties and fallbacks to the near heap, and far pushes, with
// NextTime() now and then between a pop and the next push.
TEST(EventQueueTest, PopOrderMatchesReferenceUnderRandomInterleavings) {
  int compactions = 0;
  int postponed = 0;
  int far_postponed = 0;
  int far_cancelled = 0;
  int deliveries_cancelled = 0;
  uint64_t far_pushes = 0;
  uint64_t fifo_deliveries = 0;
  uint64_t ties = 0;  // deliveries below the FIFO's tail, at its time
  uint64_t fallbacks = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ReferenceQueue ref;
    ref.rng = &rng;
    Time last_delivery = 0;  // the latest delivery time pushed so far
    uint64_t deliveries = 0;
    const auto random_ahead = [&rng] {
      return rng.UniformInt(4) == 0
                 ? EventQueue::kMaxAhead
                 : static_cast<int>(rng.UniformInt(EventQueue::kMaxAhead + 1));
    };
    const auto cancel = [&](uint64_t id) {
      if (!ref.Cancel(id)) return;
      far_cancelled += ref.far[id];
      deliveries_cancelled += ref.delivery[id];
    };
    const auto postpone = [&](uint64_t id, Time t) {
      // A simulator's windows only advance, so a postpone to the event's
      // own time is never more windows ahead than its push was.
      int ahead = random_ahead();
      if (t == ref.TimeOf(id) && !ref.delivery[id]) {
        const auto pushed_ahead = static_cast<int>(
            EventQueue::kMaxAhead - (ref.keys[id].second >> (EventQueue::kTiebreakBits + 1)));
        ahead = std::min(ahead, pushed_ahead);
      }
      if (!ref.Postpone(id, t, ahead)) return;
      ++postponed;
      far_postponed += ref.far[id];
    };
    for (int step = 0; step < 20000; ++step) {
      const uint64_t op = rng.UniformInt(100);
      if (op < 14) {
        const int children = rng.UniformInt(4) == 0 ? 1 + static_cast<int>(rng.UniformInt(2)) : 0;
        ref.Push(ref.now + static_cast<Time>(rng.UniformInt(8)), children, random_ahead());
      } else if (op < 35) {
        // A delivery: in time order (possibly tying the latest), at the
        // latest time, or earlier than it. The tiebreak's random high bits
        // order ties either way; its counter keeps keys unique.
        const Time tail = std::max(last_delivery, ref.now);
        Time t = tail + static_cast<Time>(rng.UniformInt(3));
        switch (rng.UniformInt(4)) {
          case 0:
            t = tail;
            break;
          case 1:
            if (tail > ref.now) t = ref.now + static_cast<Time>(rng.UniformInt(tail - ref.now));
            break;
          default:
            break;
        }
        last_delivery = std::max(last_delivery, t);
        const int ahead = static_cast<int>(rng.UniformInt(EventQueue::kMaxAhead));
        ref.PushDelivery(t, ahead, (rng.UniformInt(1024) << 24) | deliveries++);
      } else if (op < 50 && !ref.handles.empty()) {
        const size_t before = ref.q.SizeForTest();
        cancel(rng.UniformInt(ref.handles.size()));
        if (ref.q.SizeForTest() < before) ++compactions;
      } else if (op < 60 && !ref.handles.empty()) {
        // A postpone of a live or stale handle: to a later time, to the
        // same time, to any time from now on (earlier ones must fail), or
        // twice in a row and then a cancel. Deliveries must refuse.
        const uint64_t id = rng.UniformInt(ref.handles.size());
        const Time later = ref.TimeOf(id) + 1 + static_cast<Time>(rng.UniformInt(8));
        switch (rng.UniformInt(4)) {
          case 0:
            postpone(id, later);
            break;
          case 1:
            postpone(id, ref.TimeOf(id));
            break;
          case 2:
            postpone(id, ref.now + static_cast<Time>(rng.UniformInt(8)));
            break;
          default:
            postpone(id, later);
            postpone(id, ref.TimeOf(id) + static_cast<Time>(rng.UniformInt(3)));
            cancel(id);
            break;
        }
      } else if (op < 62) {
        // Cancel storm: fill the queue, postpone some live events, then
        // cancel about 3 in 4 of them, far past the point where dead
        // entries make up a quarter of the entries.
        for (int i = 0; i < 100; ++i) {
          ref.Push(ref.now + static_cast<Time>(rng.UniformInt(50)), 0, random_ahead());
        }
        std::vector<uint64_t> ids;
        for (const auto& [key, id] : ref.live) ids.push_back(id);
        const size_t before = ref.q.SizeForTest();
        for (const uint64_t id : ids) {
          if (rng.UniformInt(3) == 0) {
            postpone(id, ref.TimeOf(id) + static_cast<Time>(rng.UniformInt(50)));
          }
          if (rng.UniformInt(4) != 0) cancel(id);
        }
        if (ref.q.SizeForTest() < before) ++compactions;
      } else if (op < 65 && !ref.q.Empty()) {
        ASSERT_EQ(ref.q.NextTime(), ref.live.begin()->first.first);
      } else if (!ref.q.Empty()) {
        const auto [want_key, want_id] = *ref.live.begin();
        ref.live.erase(ref.live.begin());
        Callback cb;
        ref.now = ref.q.PopLive(cb);
        ASSERT_EQ(ref.now, want_key.first) << "step " << step;
        cb();
        ASSERT_EQ(ref.fired, want_id) << "step " << step;
        // Now and then, look at the head before anything is pushed.
        if (rng.UniformInt(4) == 0 && !ref.q.Empty()) {
          ASSERT_EQ(ref.q.NextTime(), ref.live.begin()->first.first) << "step " << step;
        }
      }
      ASSERT_EQ(ref.q.live_size(), ref.live.size()) << "step " << step;
      ASSERT_LE(3 * ref.q.SizeForTest(), 4 * ref.q.live_size() + 3 * kCompactFloor)
          << "step " << step;
    }
    // Every delivery went to the FIFO, fell back or tied.
    const EventQueue::Counts& counts = ref.q.counts();
    ASSERT_LE(counts.fifo_deliveries + counts.fallbacks, deliveries);
    fifo_deliveries += counts.fifo_deliveries;
    fallbacks += counts.fallbacks;
    ties += deliveries - counts.fifo_deliveries - counts.fallbacks;
    far_pushes += static_cast<uint64_t>(std::count(ref.far.begin(), ref.far.end(), true));
  }
  EXPECT_GT(compactions, 20) << "the cancel storms must compact the queue";
  EXPECT_GT(postponed, 1000);
  EXPECT_GT(far_postponed, 100);
  EXPECT_GT(far_cancelled, 100);
  EXPECT_GT(deliveries_cancelled, 100);
  EXPECT_GE(fifo_deliveries, 1000u);
  EXPECT_GE(ties, 1000u);
  EXPECT_GE(fallbacks, 1000u);
  EXPECT_GE(far_pushes, 1000u);
}

TEST(EventQueueTest, PostponeOfDeadHandlesOrToEarlierTimesChangesNothing) {
  EventQueue q;
  EventQueue other;
  const EventHandle foreign = other.Push(1, [] {});
  Callback cb;
  const EventHandle fired = q.Push(1, [] {});
  ASSERT_EQ(q.PopLive(cb), 1);
  const EventHandle cancelled = q.Push(2, [] {});
  ASSERT_TRUE(EventHandle(cancelled).Cancel());
  std::vector<int> order;
  // The first push recycles the fired event's slot, so `fired` is stale.
  const EventHandle a = q.Push(10, [&order] { order.push_back(1); });
  q.Push(10, [&order] { order.push_back(2); });
  const size_t heap = q.SizeForTest();

  EXPECT_FALSE(q.PostponeLocal(a, 9, 0)) << "to an earlier time";
  EXPECT_FALSE(q.PostponeLocal(fired, 20, 0)) << "a fired, stale handle";
  EXPECT_FALSE(q.PostponeLocal(cancelled, 20, 0)) << "a cancelled handle";
  EXPECT_FALSE(q.PostponeLocal(EventHandle(), 20, 0)) << "an inert handle";
  EXPECT_FALSE(q.PostponeLocal(foreign, 20, 0)) << "another queue's handle";

  EXPECT_TRUE(a.IsPending());
  EXPECT_TRUE(foreign.IsPending());
  EXPECT_EQ(q.live_size(), 2u);
  EXPECT_EQ(q.SizeForTest(), heap);
  EXPECT_EQ(q.NextTime(), 10);
  while (!q.Empty()) {
    EXPECT_EQ(q.PopLive(cb), 10);
    cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2})) << "`a` keeps its place";
}

// A delivery cannot be postponed, whether it waits in the FIFO or, pushed
// earlier than the FIFO's tail, in the near heap: the FIFO cannot re-key
// an entry in place, so a postponed delivery would pop at its old key.
TEST(EventQueueTest, PostponeOfADeliveryChangesNothing) {
  EventQueue q;
  std::vector<int> order;
  const EventHandle in_fifo =
      q.PushOrdered(20, EventQueue::DeliveryOrder(0, 1), [&order] { order.push_back(1); });
  const EventHandle in_heap =
      q.PushOrdered(10, EventQueue::DeliveryOrder(0, 2), [&order] { order.push_back(2); });
  ASSERT_EQ(q.counts().fifo_deliveries, 1u);
  ASSERT_EQ(q.counts().fallbacks, 1u);
  const EventHandle local = q.Push(15, [&order] { order.push_back(3); });

  EXPECT_FALSE(q.PostponeLocal(in_fifo, 30, 0));
  EXPECT_FALSE(q.PostponeLocal(in_heap, 30, 0));
  EXPECT_TRUE(in_fifo.IsPending());
  EXPECT_TRUE(in_heap.IsPending());
  EXPECT_EQ(q.live_size(), 3u);
  EXPECT_EQ(q.SizeForTest(), 3u);
  EXPECT_TRUE(q.PostponeLocal(local, 25, 0)) << "a local event still moves";
  Callback cb;
  EXPECT_EQ(q.PopLive(cb), 10);
  cb();
  EXPECT_EQ(q.PopLive(cb), 20);
  cb();
  EXPECT_EQ(q.PopLive(cb), 25);
  cb();
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3}));
}

// Postponed entries keep their old keys in the heap until they reach the
// root; NextTime must skip past them to the true earliest time, however
// often each was moved.
TEST(EventQueueTest, NextTimeNeverReturnsAPostponedEntrysOldTime) {
  EventQueue q;
  const EventHandle h = q.Push(10, [] {});
  q.Push(20, [] {});
  ASSERT_TRUE(q.PostponeLocal(h, 30, 0));
  EXPECT_EQ(q.NextTime(), 20);
  EXPECT_EQ(q.live_size(), 2u);
  EXPECT_EQ(q.SizeForTest(), 2u) << "a postpone pushes nothing";
  Callback cb;
  EXPECT_EQ(q.PopLive(cb), 20);
  EXPECT_EQ(q.PopLive(cb), 30);
  EXPECT_TRUE(q.Empty());

  Rng rng(5);
  std::vector<EventHandle> timers;
  std::vector<Time> times;
  for (int i = 0; i < 200; ++i) {
    times.push_back(static_cast<Time>(rng.UniformInt(1000)));
    timers.push_back(q.Push(times.back(), [] {}));
  }
  for (int round = 0; round < 2000; ++round) {
    const size_t i = rng.UniformInt(timers.size());
    times[i] += static_cast<Time>(rng.UniformInt(100));
    ASSERT_TRUE(q.PostponeLocal(timers[i], times[i], 0));
    ASSERT_EQ(q.NextTime(), *std::min_element(times.begin(), times.end())) << "round " << round;
  }
  EXPECT_EQ(q.SizeForTest(), timers.size());
}

TEST(SimulatorTest, PostponedTimerFiresOnceAtItsLastTime) {
  Simulator sim;
  int fired = 0;
  Time fired_at = -1;
  const EventHandle timer = sim.At(Nanoseconds(100), [&] {
    ++fired;
    fired_at = sim.now();
  });
  sim.At(Nanoseconds(50), [&] {
    EXPECT_TRUE(sim.Postpone(timer, Nanoseconds(150)));
    EXPECT_TRUE(sim.Postpone(timer, Nanoseconds(150))) << "to the same time";
    EXPECT_TRUE(sim.Postpone(timer, Nanoseconds(400)));
    EXPECT_FALSE(sim.Postpone(timer, Nanoseconds(300))) << "to an earlier time";
  });
  sim.At(Nanoseconds(120), [&] {
    EXPECT_TRUE(timer.IsPending());
    EXPECT_TRUE(sim.Postpone(timer, Nanoseconds(500)));
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(fired_at, Nanoseconds(500));
  EXPECT_EQ(sim.processed_events(), 3u);
  EXPECT_FALSE(timer.IsPending());
  EXPECT_FALSE(sim.Postpone(timer, Nanoseconds(600))) << "a fired timer";
}

// On a window grid, a postpone must key the event exactly as cancelling it
// and scheduling it again with At() would. Two simulators run the same
// random schedule of events, deliveries and re-armed timers; one re-arms
// by Postpone (falling back to cancel and At when it fails), the other by
// cancel and At. Their pop orders must be identical.
TEST(SimulatorTest, PostponeOrdersExactlyAsCancelAndReschedule) {
  constexpr Time kWindow = 1000;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    std::vector<std::vector<int>> popped(2);
    int moved = 0;
    for (int postpone = 0; postpone < 2; ++postpone) {
      Simulator sim;
      sim.set_window(kWindow);
      Rng rng(seed);
      std::vector<EventHandle> timers(8);
      std::vector<int>& log = popped[static_cast<size_t>(postpone)];
      int next_id = 0;
      uint64_t tiebreak = 0;
      std::function<void()> drive = [&] {
        for (int k = 0; k < 3; ++k) {
          // Times on a coarse grid, so that many events tie.
          const Time t = sim.now() + 7 * static_cast<Time>(rng.UniformInt(3000));
          const int id = next_id++;
          const auto record = [&log, id] { log.push_back(id); };
          switch (rng.UniformInt(3)) {
            case 0:
              sim.At(t, record);
              break;
            case 1: {
              const Time d = (sim.window_index() + 1) * kWindow +
                             7 * static_cast<Time>(rng.UniformInt(1000));
              sim.AtOrdered(d, sim.DeliveryOrder(d, tiebreak++), record);
              break;
            }
            default: {
              // A timer records its index, which both ways of re-arming keep.
              const size_t i = rng.UniformInt(timers.size());
              if (postpone != 0 && sim.Postpone(timers[i], t)) {
                ++moved;
              } else {
                timers[i].Cancel();
                timers[i] = sim.At(t, [&log, i] { log.push_back(-1 - static_cast<int>(i)); });
              }
              break;
            }
          }
        }
        if (sim.now() < 40 * kWindow) sim.After(static_cast<Time>(rng.UniformInt(500)), drive);
      };
      sim.At(0, drive);
      sim.Run();
    }
    EXPECT_EQ(popped[0], popped[1]);
    EXPECT_GT(moved, 0);
  }
}

// On a window grid, same-time events pop by (window, class, tiebreak): the
// window a local event was scheduled in, or the window after the one a
// delivery was sent in; then deliveries before local events; then the
// insertion counter of local events or a delivery's tiebreak. Drivers in
// windows 0..23 push local events and keyed deliveries (from 4 nodes and 3
// lanes each) at a few shared times, including local events more than 15
// windows ahead, whose saturated window field must still order them
// exactly. The pop order must match a reference sort by the true key.
TEST(EventQueueTest, WindowKeyOrdersSameTimeEventsAgainstReference) {
  constexpr Time kWindow = 1000;
  constexpr int kDriverWindows = 24;
  struct Key {
    Time time = 0;
    int64_t window = 0;  // scheduling window (local) or the one after (delivery)
    int cls = 0;         // 0 = delivery, 1 = local
    uint64_t tiebreak = 0;
    bool operator<(const Key& o) const {
      return std::tie(time, window, cls, tiebreak) <
             std::tie(o.time, o.window, o.cls, o.tiebreak);
    }
  };
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    Simulator sim;
    sim.set_window(kWindow);
    std::vector<Key> keys;
    std::vector<int> popped;
    uint64_t local_pushes = 0;
    int64_t saturated = 0;
    // Per (node, lane): the window of its last delivery and its count there.
    std::map<std::pair<int, int>, std::pair<int64_t, uint64_t>> lanes;
    // A few shared instants per window, so that many entries tie.
    const auto pick_time = [&rng](Time from, int64_t max_windows) {
      const int64_t w = from / kWindow + static_cast<int64_t>(rng.UniformInt(
                                             static_cast<uint64_t>(max_windows)));
      const Time offsets[] = {0, 7, kWindow - 1};
      return std::max(from, w * kWindow + offsets[rng.UniformInt(3)]);
    };
    const auto drive = [&]() {
      const Time now = sim.now();
      const int64_t window = now / kWindow;
      for (int k = 0; k < 6; ++k) {
        const int id = static_cast<int>(keys.size());
        if (rng.Bernoulli(0.5)) {
          // A local event, now and then more than 15 windows ahead.
          const Time t = rng.Bernoulli(0.2) ? pick_time(now + 16 * kWindow, 4)
                                            : pick_time(now, 4);
          saturated += t / kWindow - window > 15 ? 1 : 0;
          keys.push_back({t, window, 1, local_pushes++});
          sim.At(t, [&popped, id] { popped.push_back(id); });
        } else {
          // A delivery, which enters the next window and lands within 15
          // windows of it.
          const Time t = pick_time((window + 1) * kWindow, 15);
          const int node = static_cast<int>(rng.UniformInt(4));
          const int lane = static_cast<int>(rng.UniformInt(3));
          auto& [lane_window, count] = lanes[{node, lane}];
          if (lane_window != window) lane_window = window, count = 0;
          const uint64_t tiebreak = (static_cast<uint64_t>(node) << 24) |
                                    (static_cast<uint64_t>(lane) << 18) | count++;
          keys.push_back({t, window + 1, 0, tiebreak});
          sim.AtOrdered(t, sim.DeliveryOrder(t, tiebreak), [&popped, id] { popped.push_back(id); });
        }
      }
    };
    // Drivers are local events too; they record nothing and are pushed
    // first, so every recorded entry is pushed by a running driver.
    for (int d = 0; d < 3 * kDriverWindows; ++d) {
      sim.At(static_cast<Time>(rng.UniformInt(kDriverWindows * kWindow)), drive);
    }
    sim.Run();
    std::vector<int> expected(keys.size());
    for (size_t i = 0; i < expected.size(); ++i) expected[i] = static_cast<int>(i);
    std::stable_sort(expected.begin(), expected.end(),
                     [&keys](int a, int b) { return keys[a] < keys[b]; });
    ASSERT_EQ(popped, expected) << "seed " << seed;
    EXPECT_GT(saturated, 0) << "seed " << seed;
  }
}

TEST(EventQueueTest, NullCallbackIsRejectedAtPush) {
  // The pop path invokes unconditionally, so a null callback must be caught
  // when scheduled, not crash when it fires.
  EventQueue q;
  EXPECT_DEATH(q.Push(1, nullptr), "null callback");
}

TEST(CallbackTest, InlineAndHeapStorage) {
  int hits = 0;
  Callback small([&hits] { ++hits; });
  EXPECT_TRUE(static_cast<bool>(small));
  EXPECT_TRUE(small.IsInlineForTest()) << "one-pointer capture must stay inline";
  small();
  EXPECT_EQ(hits, 1);

  struct Big {
    int64_t payload[16];  // 128 bytes: exceeds the inline buffer
  };
  static_assert(sizeof(Big) > Callback::kInlineBytes);
  Big big{};
  big.payload[15] = 7;
  int64_t seen = 0;
  Callback large([big, &seen] { seen = big.payload[15]; });
  EXPECT_FALSE(large.IsInlineForTest()) << "oversized capture must heap-allocate";
  large();
  EXPECT_EQ(seen, 7);
}

TEST(CallbackTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  Callback a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  Callback b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(counter.use_count(), 2) << "move must not duplicate the capture";
  b();
  EXPECT_EQ(*counter, 1);
  b = nullptr;
  EXPECT_EQ(counter.use_count(), 1) << "reset must release the capture";
}

TEST(CallbackTest, WrapsStdFunction) {
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  Callback cb(fn);  // copies the std::function into the callback
  cb();
  EXPECT_EQ(hits, 1);
  fn();
  EXPECT_EQ(hits, 2);
}

// A closure that counts its moves and records the count when it runs.
struct MoveCountingClosure {
  int* moves;
  int* moves_when_run;
  MoveCountingClosure(int* m, int* at_run) : moves(m), moves_when_run(at_run) {}
  MoveCountingClosure(MoveCountingClosure&& o) noexcept
      : moves(o.moves), moves_when_run(o.moves_when_run) {
    ++*moves;
  }
  MoveCountingClosure(const MoveCountingClosure&) = delete;
  void operator()() const { *moves_when_run = *moves; }
};

// Every scheduling call builds the closure in its event slot, so before it
// runs a closure is moved twice: into the slot, and out at the pop.
TEST(CallbackTest, ScheduledClosureIsMovedTwice) {
  int moves = 0;
  int at_run = -1;
  const auto expect_two = [&](const char* path) {
    EXPECT_EQ(at_run, 2) << path;
    moves = 0;
    at_run = -1;
  };
  {
    Simulator sim;
    sim.After(Nanoseconds(5), MoveCountingClosure(&moves, &at_run));
    sim.Run();
    expect_two("Simulator::After");
    sim.At(Nanoseconds(10), MoveCountingClosure(&moves, &at_run));
    sim.Run();
    expect_two("Simulator::At");
    sim.AtOrdered(Nanoseconds(15), EventQueue::DeliveryOrder(0, 1),
                  MoveCountingClosure(&moves, &at_run));
    sim.Run();
    expect_two("Simulator::AtOrdered");
  }
  EventQueue q;
  q.Push(1, MoveCountingClosure(&moves, &at_run));
  Callback cb;
  q.PopLive(cb);
  cb();
  expect_two("EventQueue::Push");
}

TEST(CallbackTest, TriviallyDestructibleClosureHasNoDestroyOp) {
  int hits = 0;
  Callback trivial([&hits] { ++hits; });
  EXPECT_FALSE(trivial.HasDestroyOpForTest());
  auto counter = std::make_shared<int>(0);
  Callback owning([counter] { ++*counter; });
  EXPECT_TRUE(owning.HasDestroyOpForTest()) << "a shared_ptr capture must be released";
  owning = nullptr;
  EXPECT_EQ(counter.use_count(), 1);
  struct Big {
    int64_t payload[16];
  };
  Callback heap([big = Big{}] { (void)big; });
  EXPECT_TRUE(heap.HasDestroyOpForTest()) << "a heap closure must be deleted";
}

TEST(EventQueueTest, DeterministicAcrossRuns) {
  // Two identical schedules must produce identical execution orders.
  auto run = [] {
    Simulator sim(123);
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      const Time t = Nanoseconds(static_cast<int64_t>(sim.rng().UniformInt(20)));
      sim.At(t, [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace occamy::sim
