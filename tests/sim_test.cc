#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
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

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.At(Nanoseconds(10), [&] {
    ++fired;
    sim.Stop();
  });
  sim.At(Nanoseconds(20), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  // A later Run resumes.
  sim.Run();
  EXPECT_EQ(fired, 2);
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

TEST(EventQueueTest, CancelHeavyWorkloadKeepsHeapBounded) {
  // Regression test for the cancelled-event leak: a long-lived simulation
  // that keeps cancelling far-future timers (the retransmit-timer pattern)
  // must not grow the heap unboundedly. Lazy compaction bounds the heap at
  // < 2x the live count (plus the small compaction floor).
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
    ASSERT_LE(q.SizeForTest(), 2 * q.live_size() + 64)
        << "heap must stay bounded under cancel churn (round " << round << ")";
  }
  EXPECT_LE(q.SizeForTest(), 2 * q.live_size() + 64);
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

// A reference model of the queue: the live events as (time, push index),
// which is the order the queue must pop them in.
struct ReferenceQueue {
  EventQueue q;
  std::set<std::pair<Time, uint64_t>> live;
  std::vector<EventHandle> handles;  // by push index, fired and cancelled too
  std::vector<Time> times;           // by push index
  uint64_t fired = 0;                // push index of the last event that ran
  Time now = 0;
  Rng* rng = nullptr;

  // Pushes an event at `t`; when it fires it records itself and pushes
  // `children` more events at now + 0..2, ties with queued events included.
  void Push(Time t, int children) {
    const uint64_t id = handles.size();
    handles.push_back(q.Push(t, [this, id, children] {
      fired = id;
      for (int c = 0; c < children; ++c) {
        Push(now + static_cast<Time>(rng->UniformInt(3)), 0);
      }
    }));
    times.push_back(t);
    live.emplace(t, id);
  }

  // Cancels the handle of push `id`, live or not (fired and cancelled
  // handles are stale: their slot may hold a newer event by now).
  bool Cancel(uint64_t id) {
    const bool was_live = live.erase({times[id], id}) > 0;
    EXPECT_EQ(handles[id].Cancel(), was_live) << "push " << id;
    return was_live;
  }
};

// Seeded random interleavings of pushes (mostly at a handful of equal
// times), cancels of live and stale handles, pops, pushes from inside fired
// callbacks and cancel storms that force compactions: every pop must return
// the earliest live event by (time, push order).
TEST(EventQueueTest, PopOrderMatchesReferenceUnderRandomInterleavings) {
  int compactions = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    ReferenceQueue ref;
    ref.rng = &rng;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t op = rng.UniformInt(100);
      if (op < 40) {
        const int children = rng.UniformInt(4) == 0 ? 1 + static_cast<int>(rng.UniformInt(2)) : 0;
        ref.Push(ref.now + static_cast<Time>(rng.UniformInt(8)), children);
      } else if (op < 60 && !ref.handles.empty()) {
        const size_t before = ref.q.SizeForTest();
        ref.Cancel(rng.UniformInt(ref.handles.size()));
        if (ref.q.SizeForTest() < before) ++compactions;
      } else if (op < 62) {
        // Cancel storm: fill the queue, then cancel about 3 in 4 live
        // events, far past the point where dead entries outnumber live.
        for (int i = 0; i < 100; ++i) {
          ref.Push(ref.now + static_cast<Time>(rng.UniformInt(50)), 0);
        }
        std::vector<uint64_t> ids;
        for (const auto& [t, id] : ref.live) ids.push_back(id);
        const size_t before = ref.q.SizeForTest();
        for (const uint64_t id : ids) {
          if (rng.UniformInt(4) != 0) ref.Cancel(id);
        }
        if (ref.q.SizeForTest() < before) ++compactions;
      } else if (op < 65 && !ref.q.Empty()) {
        ASSERT_EQ(ref.q.NextTime(), ref.live.begin()->first);
      } else if (!ref.q.Empty()) {
        const auto [want_time, want_id] = *ref.live.begin();
        ref.live.erase(ref.live.begin());
        Callback cb;
        ref.now = ref.q.PopLive(cb);
        ASSERT_EQ(ref.now, want_time) << "step " << step;
        cb();
        ASSERT_EQ(ref.fired, want_id) << "step " << step;
      }
      ASSERT_EQ(ref.q.live_size(), ref.live.size()) << "step " << step;
      ASSERT_LE(ref.q.SizeForTest(), 2 * ref.q.live_size() + 64) << "step " << step;
    }
  }
  EXPECT_GT(compactions, 20) << "the cancel storms must compact the heap";
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
