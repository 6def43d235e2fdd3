// ShardedSimulator + shard-aware Network: conservative windows, mailbox
// merge order, lookahead edge cases, Stop() mid-window, shard assignment.
#include "src/sim/sharded_simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/bm/dynamic_threshold.h"
#include "src/net/network.h"
#include "src/net/topology.h"
#include "src/sim/mailbox.h"
#include "src/util/rng.h"

namespace occamy {
namespace {

// Node that records (arrival time, flow_id) of every packet it receives.
class RecordingNode final : public net::Node {
 public:
  void ReceivePacket(int in_port, Packet pkt) override {
    (void)in_port;
    received.emplace_back(sim().now(), pkt.flow_id);
  }
  std::vector<std::pair<Time, uint64_t>> received;
};

Packet MakePacket(uint64_t flow_id) {
  Packet pkt;
  pkt.flow_id = flow_id;
  pkt.size_bytes = 100;
  return pkt;
}

constexpr Time kLookahead = Microseconds(2);

sim::ShardedSimulator::Options EngineOptions(int shards, bool use_threads = true,
                                             int window_batch = 0) {
  sim::ShardedSimulator::Options opts;
  opts.shards = shards;
  opts.lookahead = kLookahead;
  opts.use_threads = use_threads;
  opts.window_batch = window_batch;
  return opts;
}

// Builds `nodes` RecordingNodes assigned round-robin across shards and
// returns their observation logs after running `scenario` and RunUntil.
template <typename Scenario>
std::vector<std::vector<std::pair<Time, uint64_t>>> RunScenario(
    int shards, int nodes, Time until, bool use_threads, Scenario&& scenario) {
  sim::ShardedSimulator ssim(EngineOptions(shards, use_threads));
  net::Network net(&ssim, [shards](net::NodeId id) {
    return static_cast<int>(id) % shards;
  });
  std::vector<RecordingNode*> ptrs;
  for (int i = 0; i < nodes; ++i) {
    auto node = std::make_unique<RecordingNode>();
    ptrs.push_back(node.get());
    net.AddNode(std::move(node));
  }
  scenario(ssim, net);
  ssim.RunUntil(until);
  std::vector<std::vector<std::pair<Time, uint64_t>>> logs;
  for (auto* p : ptrs) logs.push_back(p->received);
  return logs;
}

// Deliveries staged within the same window but sent from different sources
// (in *reverse* node order, at different instants) toward the same arrival
// time must merge in canonical (time, src_node, seq) order — independent of
// send order inside the window, shard count, and threading.
TEST(ShardedSimTest, MailboxMergeOrderIsCanonical) {
  const auto scenario = [](sim::ShardedSimulator& ssim, net::Network& net) {
    // All three sends fall in window [4us, 6us); all arrive at t=14us at
    // node 3 and are drained at the same barrier. Canonical order must be
    // node 0's packets (FIFO by per-source seq), then node 1's, then 2's.
    ssim.shard(net.shard_of(2)).At(Microseconds(4), [&net] {
      net.DeliverAfter(2, Microseconds(10), {3, 0}, MakePacket(22));
    });
    ssim.shard(net.shard_of(1)).At(Microseconds(4) + Nanoseconds(500), [&net] {
      net.DeliverAfter(1, Microseconds(10) - Nanoseconds(500), {3, 0}, MakePacket(11));
    });
    ssim.shard(net.shard_of(0)).At(Microseconds(5), [&net] {
      // Two same-time sends from one source: FIFO by per-source seq.
      net.DeliverAfter(0, Microseconds(9), {3, 0}, MakePacket(1));
      net.DeliverAfter(0, Microseconds(9), {3, 0}, MakePacket(2));
    });
  };

  const std::vector<std::pair<Time, uint64_t>> expected = {
      {Microseconds(14), 1},
      {Microseconds(14), 2},
      {Microseconds(14), 11},
      {Microseconds(14), 22},
  };
  for (const int shards : {1, 2, 4}) {
    for (const bool threads : {true, false}) {
      const auto logs = RunScenario(shards, 4, Milliseconds(1), threads, scenario);
      EXPECT_EQ(logs[3], expected) << "shards=" << shards << " threads=" << threads;
    }
  }
}

// Deliveries staged at *different* barriers insert in staging order (the
// window containing the send — a pure function of simulated time), even
// when their arrival instants tie. Deterministic and shard-invariant, just
// not sorted by src_node across barriers.
TEST(ShardedSimTest, CrossWindowStagingOrderIsShardInvariant) {
  const auto scenario = [](sim::ShardedSimulator& ssim, net::Network& net) {
    ssim.shard(net.shard_of(2)).At(Microseconds(0), [&net] {
      net.DeliverAfter(2, Microseconds(10), {3, 0}, MakePacket(22));  // window 0
    });
    ssim.shard(net.shard_of(1)).At(Microseconds(2), [&net] {
      net.DeliverAfter(1, Microseconds(8), {3, 0}, MakePacket(11));  // window 1
    });
    ssim.shard(net.shard_of(0)).At(Microseconds(4), [&net] {
      net.DeliverAfter(0, Microseconds(6), {3, 0}, MakePacket(1));  // window 2
    });
  };
  const std::vector<std::pair<Time, uint64_t>> expected = {
      {Microseconds(10), 22},
      {Microseconds(10), 11},
      {Microseconds(10), 1},
  };
  for (const int shards : {1, 2, 4}) {
    const auto logs = RunScenario(shards, 4, Milliseconds(1), true, scenario);
    EXPECT_EQ(logs[3], expected) << "shards=" << shards;
  }
}

// An event scheduled exactly on a window boundary belongs to the next
// window, and a delivery whose delay equals the lookahead lands exactly one
// window later — the tightest legal conservative handoff.
TEST(ShardedSimTest, WindowBoundaryEdgeCases) {
  for (const int shards : {1, 2}) {
    const auto logs = RunScenario(
        shards, 2, Milliseconds(1), true, [](sim::ShardedSimulator& ssim, net::Network& net) {
          // Send at the last picosecond of window [0, L): arrival at
          // 2L - 1ps, inside window [L, 2L).
          ssim.shard(net.shard_of(0)).At(kLookahead - 1, [&net] {
            net.DeliverAfter(0, kLookahead, {1, 0}, MakePacket(7));
          });
          // Send exactly on the boundary (first event of window [L, 2L)):
          // arrival exactly at 2L, first instant of window [2L, 3L).
          ssim.shard(net.shard_of(0)).At(kLookahead, [&net] {
            net.DeliverAfter(0, kLookahead, {1, 0}, MakePacket(8));
          });
        });
    const std::vector<std::pair<Time, uint64_t>> expected = {
        {2 * kLookahead - 1, 7},
        {2 * kLookahead, 8},
    };
    EXPECT_EQ(logs[1], expected) << "shards=" << shards;
  }
}

// Shards with no nodes (and no events) must not wedge the barrier protocol.
TEST(ShardedSimTest, EmptyShardRunsToCompletion) {
  sim::ShardedSimulator ssim(EngineOptions(4));
  net::Network net(&ssim, [](net::NodeId) { return 0; });  // all nodes on shard 0
  auto node = std::make_unique<RecordingNode>();
  RecordingNode* ptr = node.get();
  net.AddNode(std::move(node));
  net.AddNode(std::make_unique<RecordingNode>());
  ssim.shard(0).At(Microseconds(1), [&net] {
    net.DeliverAfter(1, kLookahead, {0, 0}, MakePacket(5));
  });
  ssim.RunUntil(Milliseconds(1));
  ASSERT_EQ(ptr->received.size(), 1u);
  EXPECT_EQ(ptr->received[0].second, 5u);
  EXPECT_EQ(ssim.shard(3).now(), Milliseconds(1));  // empty shard still advanced
}

// Stop() from inside an event halts the calling shard immediately and every
// shard by the current window's end; later events never run.
TEST(ShardedSimTest, StopMidWindow) {
  for (const bool threads : {true, false}) {
    sim::ShardedSimulator ssim(EngineOptions(2, threads));
    net::Network net(&ssim, [](net::NodeId id) { return static_cast<int>(id) % 2; });
    net.AddNode(std::make_unique<RecordingNode>());
    auto node1 = std::make_unique<RecordingNode>();
    RecordingNode* far = node1.get();
    net.AddNode(std::move(node1));

    int same_window_events = 0;
    ssim.shard(0).At(Microseconds(1), [&ssim] { ssim.Stop(); });
    // Same shard, same window, after the stop: must not run.
    ssim.shard(0).At(Microseconds(1) + 1, [&same_window_events] { ++same_window_events; });
    // Far future on the other shard: must not run either.
    ssim.shard(1).At(Milliseconds(5), [far] { far->received.emplace_back(0, 99); });

    ssim.RunUntil(Milliseconds(10));
    EXPECT_TRUE(ssim.stop_requested()) << "threads=" << threads;
    EXPECT_EQ(same_window_events, 0) << "threads=" << threads;
    EXPECT_TRUE(far->received.empty()) << "threads=" << threads;
    EXPECT_LT(ssim.shard(0).now(), Milliseconds(10));
  }
}

// Without Stop(), RunUntil drains everything and leaves every clock at
// `until`, hopping over empty windows rather than iterating them.
TEST(ShardedSimTest, RunUntilAdvancesAllClocksAndHopsEmptyWindows) {
  sim::ShardedSimulator ssim(EngineOptions(2));
  net::Network net(&ssim, [](net::NodeId id) { return static_cast<int>(id) % 2; });
  net.AddNode(std::make_unique<RecordingNode>());
  net.AddNode(std::make_unique<RecordingNode>());
  int ran = 0;
  ssim.shard(0).At(Microseconds(1), [&ran] { ++ran; });
  ssim.shard(1).At(Milliseconds(40), [&ran] { ++ran; });  // ~20k windows away
  ssim.RunUntil(Milliseconds(50));
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(ssim.shard(0).now(), Milliseconds(50));
  EXPECT_EQ(ssim.shard(1).now(), Milliseconds(50));
  // Far fewer windows than the naive 25k: the planner hops empty spans.
  EXPECT_LT(ssim.windows_run(), 10u);
}

// ---- window batching ----

// Every window-batch setting (adaptive, legacy, fixed, max) must produce
// the same arrival logs as batch=1 — batching only elides plan rounds,
// never a drain — across shard counts and threading modes.
TEST(ShardedSimTest, WindowBatchSettingsAreByteIdentical) {
  const auto scenario = [](sim::ShardedSimulator& ssim, net::Network& net) {
    // Mix of same-window merges, cross-window chains, and quiet gaps so
    // the planner gets to batch through mail, drain mid-batch, and hop.
    ssim.shard(net.shard_of(0)).At(Microseconds(1), [&net] {
      net.DeliverAfter(0, Microseconds(9), {3, 0}, MakePacket(1));
    });
    ssim.shard(net.shard_of(1)).At(Microseconds(3), [&net] {
      net.DeliverAfter(1, Microseconds(7), {3, 0}, MakePacket(2));
    });
    ssim.shard(net.shard_of(2)).At(Microseconds(40), [&net] {
      net.DeliverAfter(2, kLookahead, {3, 0}, MakePacket(3));
    });
  };

  std::vector<std::pair<Time, uint64_t>> reference;
  bool have_reference = false;
  for (const int batch : {1, 0, 4, 16}) {
    for (const int shards : {1, 2, 4}) {
      for (const bool threads : {true, false}) {
        sim::ShardedSimulator ssim(EngineOptions(shards, threads, batch));
        net::Network net(&ssim, [shards](net::NodeId id) {
          return static_cast<int>(id) % shards;
        });
        std::vector<RecordingNode*> ptrs;
        for (int i = 0; i < 4; ++i) {
          auto node = std::make_unique<RecordingNode>();
          ptrs.push_back(node.get());
          net.AddNode(std::move(node));
        }
        scenario(ssim, net);
        ssim.RunUntil(Milliseconds(1));
        if (!have_reference) {
          reference = ptrs[3]->received;
          have_reference = true;
          ASSERT_EQ(reference.size(), 3u);
        } else {
          EXPECT_EQ(ptrs[3]->received, reference)
              << "batch=" << batch << " shards=" << shards
              << " threads=" << threads;
        }
      }
    }
  }
}

// A run of consecutive busy windows with no cross-shard mail is exactly
// where batching pays: the adaptive policy must finish it in strictly
// fewer barrier rounds than the one-window-per-round schedule, while
// executing the same windows and events.
TEST(ShardedSimTest, AdaptiveBatchingReducesBarrierRounds) {
  static constexpr int kBusyWindows = 100;
  struct Counters {
    uint64_t rounds = 0, executed = 0, max_batch = 0;
  };
  const auto run = [](int window_batch) {
    sim::ShardedSimulator ssim(EngineOptions(2, true, window_batch));
    int ran = 0;
    for (int w = 0; w < kBusyWindows; ++w) {
      ssim.shard(w % 2).At(static_cast<Time>(w) * kLookahead + 1,
                           [&ran] { ++ran; });
    }
    ssim.RunUntil(static_cast<Time>(kBusyWindows) * kLookahead);
    EXPECT_EQ(ran, kBusyWindows) << "window_batch=" << window_batch;
    return Counters{ssim.windows_run(), ssim.windows_executed(),
                    ssim.max_window_batch()};
  };

  const Counters legacy = run(1);
  const Counters adaptive = run(0);
  EXPECT_EQ(legacy.rounds, static_cast<uint64_t>(kBusyWindows));
  EXPECT_EQ(legacy.max_batch, 1u);
  EXPECT_LT(adaptive.rounds, legacy.rounds);
  EXPECT_GT(adaptive.max_batch, 1u);
  // Batching changes how many barriers ran, never how many windows did.
  EXPECT_EQ(adaptive.executed, legacy.executed);
}

// A drain fence at every window start forces the planner back to the
// legacy schedule: no batch may cross a fence, so barrier rounds match
// batch=1 exactly. This is the alignment guarantee fault toggles rely on.
TEST(ShardedSimTest, DrainFencesForceBarrierRounds) {
  static constexpr int kBusyWindows = 32;
  const auto run = [](int window_batch, bool fences) {
    sim::ShardedSimulator ssim(EngineOptions(2, true, window_batch));
    if (fences) {
      for (int w = 0; w < kBusyWindows; ++w) {
        ssim.AddDrainFence(static_cast<Time>(w) * kLookahead);
      }
    }
    int ran = 0;
    for (int w = 0; w < kBusyWindows; ++w) {
      ssim.shard(w % 2).At(static_cast<Time>(w) * kLookahead + 1,
                           [&ran] { ++ran; });
    }
    ssim.RunUntil(static_cast<Time>(kBusyWindows) * kLookahead);
    EXPECT_EQ(ran, kBusyWindows);
    return ssim.windows_run();
  };

  const uint64_t legacy_rounds = run(1, false);
  EXPECT_EQ(run(16, true), legacy_rounds);   // fenced: batching disabled
  EXPECT_LT(run(16, false), legacy_rounds);  // unfenced: batching engages
}

// Stop() inside a k-window batch halts at the *current* window's barrier —
// an event two windows later (well inside the armed batch) on another
// shard must never run, exactly as in the unbatched engine.
TEST(ShardedSimTest, StopMidBatchHaltsAtCurrentWindow) {
  for (const bool threads : {true, false}) {
    sim::ShardedSimulator ssim(EngineOptions(2, threads, /*window_batch=*/8));
    int late_events = 0;
    ssim.shard(0).At(Microseconds(1), [&ssim] { ssim.Stop(); });
    // Two windows later, inside the 8-window batch, other shard: must not
    // run — a batch that coasts to batch_end would execute it.
    ssim.shard(1).At(Microseconds(5), [&late_events] { ++late_events; });
    ssim.RunUntil(Milliseconds(1));
    EXPECT_TRUE(ssim.stop_requested()) << "threads=" << threads;
    EXPECT_EQ(late_events, 0) << "threads=" << threads;
    EXPECT_LT(ssim.shard(1).now(), Milliseconds(1)) << "threads=" << threads;
  }
}

// ---- property tests: conservative-window invariant over randomized
// topologies, shard maps, and traffic ----

// For any randomized (topology, shard assignment, send schedule, seed):
//  * no staged mailbox delivery ever lands earlier than the window lower
//    bound — observed at the drain as deliver_time > the destination
//    shard's clock (= the previous window's bound), and a fortiori as a
//    strictly later window than the send's;
//  * the arrival logs are byte-identical for every shard count and for
//    worker threads on/off (the full determinism contract).
TEST(ShardedSimProperty, ConservativeWindowInvariantRandomized) {
  for (uint64_t trial = 0; trial < 12; ++trial) {
    Rng rng(0xC0FFEE + trial);
    const int nodes = 2 + static_cast<int>(rng.UniformInt(7));   // 2..8
    const int sends = 1 + static_cast<int>(rng.UniformInt(24));  // 1..24
    // A random (but pure-function) shard map: hash of the node id.
    const uint64_t map_salt = rng.Next();

    struct Send {
      net::NodeId src = 0, dst = 0;
      Time at = 0;
      Time delay = 0;
      uint64_t tag = 0;
    };
    std::vector<Send> schedule;
    for (int i = 0; i < sends; ++i) {
      Send s;
      s.src = static_cast<net::NodeId>(rng.UniformInt(static_cast<uint64_t>(nodes)));
      do {
        s.dst = static_cast<net::NodeId>(rng.UniformInt(static_cast<uint64_t>(nodes)));
      } while (s.dst == s.src);
      s.at = static_cast<Time>(rng.UniformInt(200 * kLookahead));
      s.delay = kLookahead + static_cast<Time>(rng.UniformInt(10 * kLookahead));
      s.tag = 1000 + static_cast<uint64_t>(i);
      schedule.push_back(s);
    }

    std::vector<std::vector<std::pair<Time, uint64_t>>> oracle;
    for (const int shards : {1, 2, 4}) {
      for (const bool threads : {true, false}) {
        sim::ShardedSimulator ssim(EngineOptions(shards, threads));
        net::Network net(&ssim, [shards, map_salt](net::NodeId id) {
          return static_cast<int>(SplitMix64(map_salt ^ id) % static_cast<uint64_t>(shards));
        });
        std::vector<RecordingNode*> ptrs;
        for (int i = 0; i < nodes; ++i) {
          auto node = std::make_unique<RecordingNode>();
          ptrs.push_back(node.get());
          net.AddNode(std::move(node));
        }
        // The probe runs concurrently on the shard workers: guard it.
        std::mutex probe_mu;
        int64_t drained = 0;
        net.set_drain_probe([&](Time deliver_time, Time dst_now) {
          std::lock_guard<std::mutex> lock(probe_mu);
          ++drained;
          // Never into the past, and — since every staged record crosses
          // exactly one barrier with delay >= lookahead — strictly past the
          // window bound the destination shard just reached.
          EXPECT_GE(deliver_time, dst_now);
          if (dst_now > 0) {
            EXPECT_GT(deliver_time, dst_now);
          }
        });
        for (const Send& s : schedule) {
          ssim.shard(net.shard_of(s.src)).At(s.at, [&net, s] {
            net.DeliverAfter(s.src, s.delay, {s.dst, 0}, MakePacket(s.tag));
          });
        }
        ssim.RunUntil(Milliseconds(10));
        EXPECT_EQ(drained, static_cast<int64_t>(schedule.size()))
            << "trial=" << trial << " shards=" << shards;

        std::vector<std::vector<std::pair<Time, uint64_t>>> logs;
        for (auto* p : ptrs) logs.push_back(p->received);
        if (oracle.empty()) {
          oracle = logs;  // shards=1, threads=true: the reference
          size_t total = 0;
          for (const auto& log : logs) total += log.size();
          EXPECT_EQ(total, schedule.size());
        } else {
          EXPECT_EQ(logs, oracle)
              << "trial=" << trial << " shards=" << shards << " threads=" << threads;
        }
      }
    }
  }
}

// Shards left empty by a randomized assignment — including the extreme
// where every node maps to one shard — must neither wedge the barrier
// protocol nor change the logs; an engine with no events at all terminates
// with every clock advanced.
TEST(ShardedSimProperty, EmptyShardsAndZeroEventRunsTerminate) {
  // No nodes, no events: RunUntil must return immediately with clocks at
  // `until`.
  for (const bool threads : {true, false}) {
    sim::ShardedSimulator ssim(EngineOptions(4, threads));
    EXPECT_EQ(ssim.RunUntil(Milliseconds(1)), 0u);
    for (int s = 0; s < 4; ++s) EXPECT_EQ(ssim.shard(s).now(), Milliseconds(1));
  }
  // All nodes crowded onto one shard k of 4: the other three stay empty for
  // the whole run.
  for (int k = 0; k < 4; ++k) {
    sim::ShardedSimulator ssim(EngineOptions(4));
    net::Network net(&ssim, [k](net::NodeId) { return k; });
    auto node = std::make_unique<RecordingNode>();
    RecordingNode* ptr = node.get();
    net.AddNode(std::move(node));
    net.AddNode(std::make_unique<RecordingNode>());
    ssim.shard(k).At(Microseconds(1), [&net] {
      net.DeliverAfter(1, kLookahead, {0, 0}, MakePacket(5));
    });
    ssim.RunUntil(Milliseconds(1));
    ASSERT_EQ(ptr->received.size(), 1u) << "k=" << k;
    for (int s = 0; s < 4; ++s) EXPECT_EQ(ssim.shard(s).now(), Milliseconds(1));
  }
}

// SpscMailbox drains FIFO and empties.
TEST(ShardedSimTest, SpscMailboxDrainsFifo) {
  sim::SpscMailbox<int> box;
  EXPECT_TRUE(box.Empty());
  box.Push(1);
  box.Push(2);
  box.Push(3);
  EXPECT_EQ(box.Size(), 3u);
  std::vector<int> out{0};
  box.DrainInto(out);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(box.Empty());
}

// Leaf-spine shard assignment: a leaf and all of its hosts share a shard,
// spines spread round-robin, and shards=1 puts everything on shard 0.
TEST(ShardedSimTest, LeafSpineShardAssignment) {
  net::LeafSpineConfig cfg;
  cfg.num_leaves = 4;
  cfg.num_spines = 4;
  cfg.hosts_per_leaf = 8;
  const int kShards = 4;
  // Ids: leaves [0,4), spines [4,8), hosts [8, 40) rack-major.
  for (int l = 0; l < cfg.num_leaves; ++l) {
    const int leaf_shard = net::LeafSpineShardOf(cfg, kShards, static_cast<net::NodeId>(l));
    EXPECT_EQ(leaf_shard, l % kShards);
    for (int h = 0; h < cfg.hosts_per_leaf; ++h) {
      const net::NodeId host_id = static_cast<net::NodeId>(
          cfg.num_leaves + cfg.num_spines + l * cfg.hosts_per_leaf + h);
      EXPECT_EQ(net::LeafSpineShardOf(cfg, kShards, host_id), leaf_shard);
    }
  }
  for (int s = 0; s < cfg.num_spines; ++s) {
    EXPECT_EQ(net::LeafSpineShardOf(cfg, kShards,
                                    static_cast<net::NodeId>(cfg.num_leaves + s)),
              s % kShards);
  }
  for (net::NodeId id = 0; id < 40; ++id) {
    EXPECT_EQ(net::LeafSpineShardOf(cfg, 1, id), 0);
  }
}

// Star shard assignment (the hand-placed stars of the shard-affinity
// tests): partition p -> shard p % shards, each host on its egress
// partition's shard, the switch on shard 0, and everything on shard 0 when
// shards == 1 or with one shared buffer.
TEST(ShardedSimTest, StarShardAssignment) {
  net::StarConfig cfg;
  cfg.num_hosts = 16;
  cfg.switch_config.ports_per_partition = 4;  // 4 partitions
  const int kShards = 3;
  EXPECT_EQ(net::StarShardOf(cfg, kShards, /*id=*/0), 0);  // switch home
  for (int h = 0; h < cfg.num_hosts; ++h) {
    const int partition = net::StarPartitionOfPort(cfg, h);
    EXPECT_EQ(partition, h / 4);
    const int lane_shard = net::StarLaneShardOf(kShards, partition);
    EXPECT_EQ(lane_shard, partition % kShards);
    // Host i is node id i + 1 (BuildStar adds the switch first) and must
    // ride on its egress partition's shard.
    EXPECT_EQ(net::StarShardOf(cfg, kShards, static_cast<net::NodeId>(h + 1)),
              lane_shard);
  }
  // One shared buffer (ports_per_partition = 0 sentinel): a single lane.
  net::StarConfig one;
  one.num_hosts = 8;
  one.switch_config.ports_per_partition = 0;
  for (net::NodeId id = 0; id <= 8; ++id) {
    EXPECT_EQ(net::StarShardOf(one, 4, id), 0);
    EXPECT_EQ(net::StarShardOf(one, 1, id), 0);
  }
  EXPECT_EQ(net::StarPartitionOfPort(one, 7), 0);
}

// Every lane runs on its node's shard. The three-argument Network
// constructor still takes a lane function, but one that puts a star
// partition off the switch's shard must fail when the switch binds its
// lanes; at one shard every lane lands on shard 0 and the star builds.
TEST(ShardedSimDeathTest, StarLaneOffItsNodeShardDies) {
  net::StarConfig cfg;
  cfg.num_hosts = 8;
  cfg.link_propagation = kLookahead;
  cfg.switch_config.ports_per_partition = 2;  // 4 partitions
  cfg.switch_config.tm.buffer_bytes = 100 * 1000;
  cfg.switch_config.scheme_factory = [] {
    return std::unique_ptr<bm::BmScheme>(new bm::DynamicThreshold());
  };
  const auto make_network = [&cfg](sim::ShardedSimulator* ssim, int shards) {
    return std::make_unique<net::Network>(
        ssim, [&cfg, shards](net::NodeId id) { return net::StarShardOf(cfg, shards, id); },
        [shards](net::NodeId, int lane) { return net::StarLaneShardOf(shards, lane); });
  };
  sim::ShardedSimulator one(EngineOptions(1, /*use_threads=*/false));
  auto one_net = make_network(&one, 1);
  net::StarTopology topo = net::BuildStar(*one_net, cfg);
  EXPECT_EQ(topo.sw(*one_net).num_partitions(), 4);

  sim::ShardedSimulator two(EngineOptions(2, /*use_threads=*/false));
  auto two_net = make_network(&two, 2);
  EXPECT_DEATH(net::BuildStar(*two_net, cfg), "lane 1 is off its node's shard");
}

}  // namespace
}  // namespace occamy
