// Unit tests for Occamy's expulsion engine against a fake TM target.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "src/core/expulsion_engine.h"
#include "src/core/occamy_bm.h"
#include "src/sim/simulator.h"
#include "src/tm/traffic_manager.h"
#include "src/util/rng.h"

namespace occamy::core {
namespace {

// Queues hold packets expressed as cell counts; threshold is settable.
class FakeTarget : public ExpulsionTarget {
 public:
  FakeTarget(int num_queues, int cell_bytes = 200)
      : cell_bytes_(cell_bytes), queues_(static_cast<size_t>(num_queues)) {}

  int num_queues() const override { return static_cast<int>(queues_.size()); }
  int64_t qlen_bytes(int q) const override {
    int64_t cells = 0;
    for (int64_t c : queues_[static_cast<size_t>(q)]) cells += c;
    return cells * cell_bytes_;
  }
  int64_t expulsion_threshold(int q) const override {
    (void)q;
    return threshold_;
  }
  // The single mutable threshold is its own key (trivially monotone), so
  // this fixture is valid for both full-rescan and incremental refresh.
  int64_t threshold_key() const override { return threshold_; }
  int64_t head_cells(int q) const override {
    const auto& queue = queues_[static_cast<size_t>(q)];
    return queue.empty() ? 0 : queue.front();
  }
  void HeadDropOnePacket(int q) override {
    auto& queue = queues_[static_cast<size_t>(q)];
    ASSERT_FALSE(queue.empty());
    drops_.push_back(q);
    queue.pop_front();
  }

  void Push(int q, int64_t cells) { queues_[static_cast<size_t>(q)].push_back(cells); }
  void Pop(int q) { queues_[static_cast<size_t>(q)].pop_front(); }
  void set_threshold(int64_t t) { threshold_ = t; }
  const std::vector<int>& drops() const { return drops_; }

 private:
  int cell_bytes_;
  std::vector<std::deque<int64_t>> queues_;
  int64_t threshold_ = 0;
  std::vector<int> drops_;
};

struct EngineFixture {
  explicit EngineFixture(int num_queues, Bandwidth capacity = Bandwidth::Gbps(80),
                         double burst = 256.0, ExpulsionConfig cfg = {})
      : target(num_queues), memory(capacity, 200, burst), engine(&sim, &target, &memory, cfg) {}

  sim::Simulator sim;
  FakeTarget target;
  MemoryBandwidthModel memory;
  ExpulsionEngine engine;
};

TEST(ExpulsionEngineTest, ExpelsUntilBelowThreshold) {
  EngineFixture f(1);
  // 10 packets x 5 cells = 50 cells = 10000 bytes; threshold 4000 bytes.
  for (int i = 0; i < 10; ++i) f.target.Push(0, 5);
  f.target.set_threshold(4000);
  f.engine.Kick();
  f.sim.Run();
  // Stops as soon as qlen <= threshold: 4000 bytes = 20 cells = 4 packets.
  EXPECT_EQ(f.target.qlen_bytes(0), 4000);
  EXPECT_EQ(f.engine.expelled_packets(), 6);
  EXPECT_EQ(f.engine.expelled_cells(), 30);
  EXPECT_EQ(f.engine.expelled_bytes(), 6000);
}

TEST(ExpulsionEngineTest, IdleWithoutOverAllocation) {
  EngineFixture f(2);
  f.target.Push(0, 5);
  f.target.set_threshold(10000);
  f.engine.Kick();
  f.sim.Run();
  EXPECT_EQ(f.engine.expelled_packets(), 0);
  EXPECT_EQ(f.target.qlen_bytes(0), 1000);
}

TEST(ExpulsionEngineTest, RoundRobinAcrossOverAllocatedQueues) {
  EngineFixture f(3);
  for (int q = 0; q < 3; ++q) {
    for (int i = 0; i < 4; ++i) f.target.Push(q, 1);
  }
  f.target.set_threshold(0);  // everything over-allocated
  f.engine.Kick();
  f.sim.Run();
  // All packets expelled, in round-robin order.
  ASSERT_EQ(f.target.drops().size(), 12u);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(f.target.drops()[i], static_cast<int>(i % 3)) << "drop " << i;
  }
}

TEST(ExpulsionEngineTest, LongestQueuePolicy) {
  ExpulsionConfig cfg;
  cfg.policy = DropPolicy::kLongestQueue;
  EngineFixture f(2, Bandwidth::Gbps(80), 256.0, cfg);
  for (int i = 0; i < 6; ++i) f.target.Push(0, 1);
  for (int i = 0; i < 3; ++i) f.target.Push(1, 1);
  f.target.set_threshold(400);  // 2 cells
  f.engine.Kick();
  f.sim.Run();
  // Queue 0 must be drained toward the threshold before queue 1 is touched
  // (longest-first), ending with both at threshold.
  const auto& drops = f.target.drops();
  ASSERT_EQ(drops.size(), 5u);
  // First drops come from the longest queue (0 has 6 vs 3).
  EXPECT_EQ(drops[0], 0);
  EXPECT_EQ(drops[1], 0);
  EXPECT_EQ(drops[2], 0);
  EXPECT_EQ(f.target.qlen_bytes(0), 400);
  EXPECT_EQ(f.target.qlen_bytes(1), 400);
}

TEST(ExpulsionEngineTest, BlocksWithoutRedundantBandwidth) {
  EngineFixture f(1);
  // Drain all tokens and go deeply negative (egress at full blast).
  f.memory.ForceConsume(256 + 5000, 0);
  f.target.Push(0, 5);
  f.target.set_threshold(0);
  f.engine.Kick();
  // Within the first microsecond there is no redundant bandwidth
  // (deficit 5005 cells at 50 cells/us needs ~100us).
  f.sim.RunUntil(Microseconds(1));
  EXPECT_EQ(f.engine.expelled_packets(), 0);
  EXPECT_GE(f.engine.blocked_on_bandwidth(), 1);
  // Eventually tokens accumulate and the packet is expelled.
  f.sim.Run();
  EXPECT_EQ(f.engine.expelled_packets(), 1);
}

TEST(ExpulsionEngineTest, ExpulsionConsumesTokens) {
  EngineFixture f(1);
  for (int i = 0; i < 10; ++i) f.target.Push(0, 10);
  f.target.set_threshold(0);
  f.engine.Kick();
  f.sim.Run();
  EXPECT_EQ(f.engine.expelled_packets(), 10);
  // 100 cells consumed from a 256-cell bucket (minus tiny refill during ops).
  EXPECT_LT(f.memory.Tokens(f.sim.now()), 170.0);
}

TEST(ExpulsionEngineTest, KickWhileScheduledIsNoOp) {
  EngineFixture f(1);
  f.target.Push(0, 1);
  f.target.set_threshold(0);
  f.engine.Kick();
  f.engine.Kick();
  f.engine.Kick();
  f.sim.Run();
  EXPECT_EQ(f.engine.expelled_packets(), 1);
}

TEST(ExpulsionEngineTest, OpLatencyPacesExpulsion) {
  ExpulsionConfig cfg;
  cfg.cycle = Nanoseconds(1);
  cfg.selector_cycles = 2;
  cfg.cell_ptr_batch = 4;
  EngineFixture f(1, Bandwidth::Gbps(800), 1e9, cfg);  // bandwidth not limiting
  for (int i = 0; i < 100; ++i) f.target.Push(0, 8);   // 8 cells -> 2 cycles
  f.target.set_threshold(0);
  f.engine.Kick();
  f.sim.Run();
  EXPECT_EQ(f.engine.expelled_packets(), 100);
  // 100 packets x 2ns per op = 200ns (first op at t=0).
  EXPECT_EQ(f.sim.now(), Nanoseconds(200));
}

TEST(ExpulsionEngineTest, IncrementalRefreshMatchesFullRescanBehavior) {
  // FakeTarget honours the threshold_key contract (key = the single mutable
  // threshold), so the incremental-refresh engine must behave exactly like
  // the default full-rescan engine, including when thresholds move while
  // the engine chain is running.
  std::vector<int> reference;
  for (const bool incremental : {false, true}) {
    ExpulsionConfig cfg;
    cfg.incremental_refresh = incremental;
    EngineFixture f(3, Bandwidth::Gbps(80), 256.0, cfg);
    for (int q = 0; q < 3; ++q) {
      for (int i = 0; i < 10; ++i) f.target.Push(q, 5);
    }
    f.target.set_threshold(4000);
    f.engine.Kick();
    f.sim.At(Nanoseconds(5), [&] { f.target.set_threshold(8000); });
    f.sim.Run();
    for (int q = 0; q < 3; ++q) {
      EXPECT_LE(f.target.qlen_bytes(q), 8000) << "incremental=" << incremental;
    }
    EXPECT_GT(f.engine.expelled_packets(), 0) << "incremental=" << incremental;
    // Both modes must land on the identical drop sequence.
    if (!incremental) {
      reference = f.target.drops();
    } else {
      EXPECT_EQ(f.target.drops(), reference);
    }
  }
}

// A target whose HeadDropOnePacket feeds back into the engine, as a TM drop
// hook re-entering the traffic manager would.
class KickingTarget : public FakeTarget {
 public:
  using FakeTarget::FakeTarget;
  void set_engine(ExpulsionEngine* engine) { engine_ = engine; }
  void HeadDropOnePacket(int q) override {
    FakeTarget::HeadDropOnePacket(q);
    if (engine_ != nullptr) engine_->Kick();  // stray re-entrant kick
  }

 private:
  ExpulsionEngine* engine_ = nullptr;
};

TEST(ExpulsionEngineTest, ReentrantKickCannotDoubleScheduleOrBreakPacing) {
  // Regression test: a Kick() arriving while Step() executes used to be able
  // to schedule a second Step (the pending_ handle was then overwritten
  // without cancelling), double-running the engine and bypassing the
  // OpLatency pipeline pacing. With the guard, the schedule from inside
  // Step() wins and pacing is identical to the kick-free case.
  ExpulsionConfig cfg;
  cfg.cycle = Nanoseconds(1);
  cfg.selector_cycles = 2;
  cfg.cell_ptr_batch = 4;
  sim::Simulator sim;
  KickingTarget target(1);
  MemoryBandwidthModel memory(Bandwidth::Gbps(800), 200, 1e9);  // not limiting
  ExpulsionEngine engine(&sim, &target, &memory, cfg);
  target.set_engine(&engine);
  for (int i = 0; i < 100; ++i) target.Push(0, 8);  // 8 cells -> 2 cycles/op
  target.set_threshold(0);
  engine.Kick();
  sim.Run();
  EXPECT_EQ(engine.expelled_packets(), 100);
  // Same schedule as OpLatencyPacesExpulsion: one drop every 2 ns. Any
  // double-scheduling would finish earlier (two drops per instant).
  EXPECT_EQ(sim.now(), Nanoseconds(200));
}

TEST(ExpulsionEngineTest, ThresholdRisesMidway) {
  // Simulates DT thresholds rising as the buffer drains: the engine must
  // re-evaluate and stop early.
  EngineFixture f(1);
  for (int i = 0; i < 10; ++i) f.target.Push(0, 5);
  f.target.set_threshold(1000);
  f.engine.Kick();
  f.sim.At(Nanoseconds(3), [&] { f.target.set_threshold(8000); });
  f.sim.Run();
  // Some packets were expelled before the threshold rose, then it stopped.
  EXPECT_GT(f.engine.expelled_packets(), 0);
  EXPECT_LT(f.engine.expelled_packets(), 6);
  EXPECT_GE(f.target.qlen_bytes(0), 8000);
}

// ---- The kick contract: an idle engine stays off the event queue ----

// FakeTarget honours the threshold_key contract, and a pop never lowers
// its threshold, so the shrink shortcut of incremental_refresh is exact.
ExpulsionConfig IncrementalConfig() {
  ExpulsionConfig cfg;
  cfg.incremental_refresh = true;
  return cfg;
}

TEST(ExpulsionKickTest, GrowthKickUnderThresholdSchedulesNothing) {
  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "full rescan");
    ExpulsionConfig cfg;
    cfg.incremental_refresh = incremental;
    EngineFixture f(2, Bandwidth::Gbps(80), 256.0, cfg);
    f.target.set_threshold(2000);
    f.target.Push(0, 5);  // 1000 B
    f.engine.KickGrowth(0);
    EXPECT_FALSE(f.sim.HasPendingEvents());
    f.engine.Kick();
    EXPECT_FALSE(f.sim.HasPendingEvents());
  }
}

TEST(ExpulsionKickTest, GrowthKickThatOverAllocatesSchedulesOneStepNow) {
  EngineFixture f(1, Bandwidth::Gbps(80), 256.0, IncrementalConfig());
  f.target.set_threshold(4000);
  f.sim.RunUntil(Microseconds(5));
  for (int i = 0; i < 10; ++i) {
    f.target.Push(0, 5);  // 1000 B each: the 5th crosses 4000 B
    f.engine.KickGrowth(0);
    EXPECT_EQ(f.sim.HasPendingEvents(), i >= 4) << "after packet " << i;
  }
  EXPECT_EQ(f.sim.NextEventTime(), Microseconds(5));
  // Exactly one event at now: the Step, which expels once and paces the
  // next Step one op later.
  EXPECT_EQ(f.sim.RunUntil(Microseconds(5)), 1u);
  EXPECT_EQ(f.engine.expelled_packets(), 1);
  f.sim.Run();
  // The same outcome as ExpelsUntilBelowThreshold.
  EXPECT_EQ(f.target.qlen_bytes(0), 4000);
  EXPECT_EQ(f.engine.expelled_packets(), 6);
}

TEST(ExpulsionKickTest, ShrinkKickIsFoldedIntoTheNextRefresh) {
  // The full-rescan engine re-evaluates every queue at every kick; the
  // incremental engine skips the check on shrinks. Both must expel the
  // same packets at the same times.
  std::vector<int> reference;
  Time reference_end = 0;
  for (const bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "full rescan");
    ExpulsionConfig cfg;
    cfg.incremental_refresh = incremental;
    EngineFixture f(3, Bandwidth::Gbps(80), 256.0, cfg);
    f.target.set_threshold(3000);
    for (int q = 0; q < 3; ++q) {
      for (int i = 0; i < 3; ++i) {
        f.target.Push(q, 5);  // 1000 B each, up to the threshold
        f.engine.KickGrowth(q);
      }
    }
    ASSERT_FALSE(f.sim.HasPendingEvents());
    f.target.Pop(1);
    f.engine.KickShrink(1);
    EXPECT_FALSE(f.sim.HasPendingEvents());
    f.target.Pop(1);
    f.engine.KickShrink(1);
    EXPECT_FALSE(f.sim.HasPendingEvents());
    // The threshold falls below queues 0 and 2 but not queue 1: the growth
    // kick on queue 2 must see all three.
    f.target.set_threshold(1500);
    f.target.Push(2, 5);
    f.engine.KickGrowth(2);
    EXPECT_TRUE(f.sim.HasPendingEvents());
    f.sim.Run();
    EXPECT_EQ(f.target.qlen_bytes(0), 1000);
    EXPECT_EQ(f.target.qlen_bytes(1), 1000);
    EXPECT_EQ(f.target.qlen_bytes(2), 1000);
    if (!incremental) {
      reference = f.target.drops();
      reference_end = f.sim.now();
      EXPECT_EQ(reference.size(), 5u);
    } else {
      EXPECT_EQ(f.target.drops(), reference);
      EXPECT_EQ(f.sim.now(), reference_end);
    }
  }
}

TEST(ExpulsionKickTest, LaggedControlPlaneSchedulesEveryIdleKick) {
  // A stale control plane acts later on whatever it then sees, never on
  // the state at the kick, so even a kick with nothing over-allocated
  // schedules its Step `lag` late.
  for (const bool grew : {true, false}) {
    SCOPED_TRACE(grew ? "growth kick" : "shrink kick");
    EngineFixture f(1, Bandwidth::Gbps(80), 256.0, IncrementalConfig());
    f.target.set_threshold(10000);
    f.target.Push(0, 5);
    f.target.Push(0, 5);
    f.engine.set_control_lag(Microseconds(3));
    f.sim.RunUntil(Microseconds(5));
    if (grew) {
      f.engine.KickGrowth(0);
    } else {
      f.target.Pop(0);
      f.engine.KickShrink(0);
    }
    EXPECT_EQ(f.sim.NextEventTime(), Microseconds(8));
    EXPECT_EQ(f.engine.cp_stalled_steps(), 1);
    EXPECT_EQ(f.sim.Run(), 1u);  // the late Step finds nothing to do
    EXPECT_EQ(f.engine.expelled_packets(), 0);
  }
}

TEST(ExpulsionKickTest, FrozenKickCountsAStallAndThawingKickExpels) {
  EngineFixture f(1, Bandwidth::Gbps(80), 256.0, IncrementalConfig());
  f.target.set_threshold(4000);
  f.engine.SetControlFrozen(true);
  for (int i = 0; i < 10; ++i) {
    f.target.Push(0, 5);
    f.engine.KickGrowth(0);
  }
  f.target.Pop(0);
  f.engine.KickShrink(0);
  EXPECT_FALSE(f.sim.HasPendingEvents());
  EXPECT_EQ(f.engine.cp_stalled_steps(), 11);
  f.engine.SetControlFrozen(false);
  EXPECT_EQ(f.sim.NextEventTime(), 0);
  f.sim.Run();
  EXPECT_EQ(f.target.qlen_bytes(0), 4000);
  EXPECT_EQ(f.engine.expelled_packets(), 5);
}

// The kick sites of a TmPartition running Occamy: seeded enqueues and
// dequeues that stay under every threshold never put the engine on the
// event queue, and the enqueue that over-allocates a queue schedules
// exactly one Step.
TEST(ExpulsionKickTest, TmPartitionUnderThresholdsStaysOffTheEventQueue) {
  sim::Simulator sim;
  tm::TmConfig cfg;
  cfg.buffer_bytes = 200000;
  cfg.queues_per_port = 2;
  cfg.port_rates.assign(4, Bandwidth::Gbps(10));
  cfg.class_configs = {tm::TmQueueConfig{kRecommendedOccamyAlpha, 0},
                       tm::TmQueueConfig{1.0, 1}};
  cfg.enable_expulsion = true;
  tm::TmPartition part(&sim, cfg, std::make_unique<OccamyBm>());
  const auto any_over_allocated = [&part] {
    for (int q = 0; q < part.num_queues(); ++q) {
      if (part.qlen_bytes(q) > part.expulsion_threshold(q)) return true;
    }
    return false;
  };

  // A third of the buffer at most: every threshold stays at or above
  // alpha * 2/3 of it, above any queue's length.
  Rng rng(11);
  Packet pkt;
  int64_t dequeues = 0;
  for (int op = 0; op < 20000; ++op) {
    const int port = static_cast<int>(rng.UniformInt(4));
    if (rng.UniformInt(2) == 0 && part.occupancy_bytes() < cfg.buffer_bytes / 3 - 1600) {
      pkt.size_bytes = static_cast<uint32_t>(rng.UniformRange(64, 1500));
      pkt.traffic_class = static_cast<uint8_t>(rng.UniformInt(2));
      ASSERT_TRUE(part.Enqueue(port, pkt).accepted);
    } else if (part.DequeueForPort(port).has_value()) {
      ++dequeues;
    }
    ASSERT_FALSE(any_over_allocated()) << "op " << op;
    ASSERT_EQ(sim.RunUntil(sim.now() + Nanoseconds(300)), 0u) << "op " << op;
  }
  EXPECT_GT(dequeues, 1000);
  for (int port = 0; port < 4; ++port) {
    while (part.DequeueForPort(port).has_value()) {
    }
  }
  ASSERT_EQ(part.occupancy_bytes(), 0);
  ASSERT_FALSE(sim.HasPendingEvents());

  // From an empty buffer, class 1 (alpha 1) of port 0 grows by 1600 B
  // (8 cells) a packet; its 63rd packet is the first to put it over
  // T = free, and that enqueue schedules the Step.
  pkt.size_bytes = 1500;
  pkt.traffic_class = 1;
  for (int i = 0; i < 62; ++i) {
    ASSERT_TRUE(part.Enqueue(0, pkt).accepted);
    ASSERT_FALSE(any_over_allocated());
    ASSERT_FALSE(sim.HasPendingEvents()) << "packet " << i;
  }
  ASSERT_TRUE(part.Enqueue(0, pkt).accepted);
  ASSERT_TRUE(any_over_allocated());
  EXPECT_EQ(sim.NextEventTime(), sim.now());
  EXPECT_EQ(sim.RunUntil(sim.now()), 1u);
  sim.Run();
  EXPECT_GT(part.stats().expelled_packets, 0);
  EXPECT_FALSE(any_over_allocated());
}

}  // namespace
}  // namespace occamy::core
