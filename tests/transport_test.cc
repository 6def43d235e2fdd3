#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/bm/dynamic_threshold.h"
#include "src/net/topology.h"
#include "src/sim/sharded_simulator.h"
#include "src/transport/flow_manager.h"
#include "src/workload/open_loop.h"
#include "tests/one_shard.h"

namespace occamy::transport {
namespace {

struct Harness {
  explicit Harness(int hosts = 4, Bandwidth rate = Bandwidth::Gbps(10),
                   int64_t buffer = 500000, int64_t ecn_threshold = 0)
      : engine(Microseconds(1), 7), net(engine.net) {
    net::StarConfig cfg;
    cfg.num_hosts = hosts;
    cfg.host_rate = rate;
    cfg.link_propagation = Microseconds(1);
    cfg.switch_config.tm.buffer_bytes = buffer;
    cfg.switch_config.tm.ecn_threshold_bytes = ecn_threshold;
    cfg.switch_config.scheme_factory = [] {
      return std::make_unique<bm::DynamicThreshold>();
    };
    topo = net::BuildStar(net, cfg);
    manager = std::make_unique<FlowManager>(&net);
    for (auto h : topo.hosts) manager->AttachHost(h);
  }

  uint64_t Flow(int src, int dst, int64_t bytes, CcAlgorithm cc = CcAlgorithm::kDctcp,
                Time start = 0) {
    FlowParams p;
    p.src = topo.hosts[static_cast<size_t>(src)];
    p.dst = topo.hosts[static_cast<size_t>(dst)];
    p.size_bytes = bytes;
    p.cc = cc;
    p.start_time = start;
    return manager->StartFlow(p);
  }

  void Run() { engine.Run(); }
  void RunUntil(Time t) { engine.RunUntil(t); }

  testing::OneShardNet engine;
  net::Network& net;
  net::StarTopology topo;
  std::unique_ptr<FlowManager> manager;
};

TEST(TransportTest, SingleFlowCompletesExactly) {
  Harness h;
  h.Flow(0, 1, 100000);
  h.Run();
  ASSERT_EQ(h.manager->completions().Count(), 1u);
  const auto& rec = h.manager->completions().records()[0];
  EXPECT_EQ(rec.bytes, 100000);
  EXPECT_GT(rec.end, rec.start);
  EXPECT_EQ(h.manager->counters().flows_completed, 1);
}

TEST(TransportTest, TinyFlowSingleSegment) {
  Harness h;
  h.Flow(0, 1, 100);
  h.Run();
  ASSERT_EQ(h.manager->completions().Count(), 1u);
  EXPECT_EQ(h.manager->counters().data_packets_sent, 1);
  EXPECT_EQ(h.manager->counters().acks_sent, 1);
}

TEST(TransportTest, UncongestedFctNearIdeal) {
  Harness h;
  // 50 segments at 10G through 4 hops; no competition.
  const int64_t bytes = 50 * 1460;
  h.Flow(0, 1, bytes);
  h.Run();
  const auto& rec = h.manager->completions().records()[0];
  // Ideal: serialization of 50*1500B at 10G (~60us) + ~2 RTTs of slow start
  // ramp + base RTT (~8us). Require within 3x of the transfer time.
  const double ms = ToMilliseconds(rec.Duration());
  EXPECT_LT(ms, 0.25);
  EXPECT_GT(ms, 0.05);
}

TEST(TransportTest, ThroughputReachesLineRate) {
  Harness h;
  const int64_t bytes = 4 * 1000 * 1000;  // 4 MB
  h.Flow(0, 1, bytes);
  h.Run();
  const auto& rec = h.manager->completions().records()[0];
  const double seconds = ToSeconds(rec.Duration());
  const double goodput = static_cast<double>(bytes) / seconds;  // bytes/s
  // 10G line rate is 1.25e9 B/s; headers cost ~2.7%; require > 80%.
  EXPECT_GT(goodput, 1.0e9);
}

TEST(TransportTest, DctcpKeepsQueueNearEcnThreshold) {
  Harness h(4, Bandwidth::Gbps(10), 500000, /*ecn_threshold=*/30000);
  h.Flow(0, 1, 8 * 1000 * 1000);
  h.Flow(2, 1, 8 * 1000 * 1000);
  // Sample the receiver port queue during steady state.
  int64_t max_q = 0;
  for (Time t = Milliseconds(2); t < Milliseconds(8); t += Microseconds(50)) {
    h.RunUntil(t);
    max_q = std::max(max_q, h.topo.sw(h.net).QueueLengthBytes(1, 0));
  }
  h.Run();
  EXPECT_EQ(h.manager->completions().Count(), 2u);
  // DCTCP bounds the queue: well below the 500KB buffer, in the vicinity of
  // K plus a few BDP of overshoot.
  EXPECT_GT(max_q, 10000);
  EXPECT_LT(max_q, 200000);
}

TEST(TransportTest, EcnAvoidsLossEntirely) {
  Harness h(4, Bandwidth::Gbps(10), 500000, /*ecn_threshold=*/30000);
  h.Flow(0, 1, 2 * 1000 * 1000);
  h.Flow(2, 1, 2 * 1000 * 1000);
  h.Run();
  EXPECT_EQ(h.topo.sw(h.net).TotalDrops(), 0);
  EXPECT_EQ(h.manager->counters().rtos, 0);
}

TEST(TransportTest, RecoversFromLossWithTinyBuffer) {
  Harness h(4, Bandwidth::Gbps(10), /*buffer=*/30000, /*ecn=*/0);
  h.Flow(0, 1, 1000 * 1000);
  h.Flow(2, 1, 1000 * 1000);
  h.Flow(3, 1, 1000 * 1000);
  h.Run();
  EXPECT_EQ(h.manager->completions().Count(), 3u);
  EXPECT_GT(h.topo.sw(h.net).TotalDrops(), 0);
  EXPECT_GT(h.manager->counters().fast_retransmits + h.manager->counters().rtos, 0);
  // Every byte was delivered despite drops.
  for (const auto& rec : h.manager->completions().records()) {
    EXPECT_EQ(rec.bytes, 1000 * 1000);
  }
}

TEST(TransportTest, SevereIncastTriggersRtoButCompletes) {
  Harness h(8, Bandwidth::Gbps(10), /*buffer=*/40000, /*ecn=*/0);
  for (int s = 1; s < 8; ++s) h.Flow(s, 0, 300000);
  h.Run();
  EXPECT_EQ(h.manager->completions().Count(), 7u);
  EXPECT_GT(h.manager->counters().rtos, 0);
}

TEST(TransportTest, CubicFlowCompletes) {
  Harness h(4, Bandwidth::Gbps(10), 100000, 0);
  h.Flow(0, 1, 3 * 1000 * 1000, CcAlgorithm::kCubic);
  h.Flow(2, 1, 3 * 1000 * 1000, CcAlgorithm::kCubic);
  h.Run();
  EXPECT_EQ(h.manager->completions().Count(), 2u);
  const double goodput = 3.0e6 / ToSeconds(h.manager->completions().records()[0].Duration());
  EXPECT_GT(goodput, 3.0e8);  // both flows share 1.25e9 B/s; ramp-up costs some
}

TEST(TransportTest, CubicIgnoresEcnMarks) {
  // CUBIC (paper's LP traffic) fills buffers despite ECN marking. Two
  // senders into one port: the receiver port queue must grow far beyond the
  // ECN threshold (DCTCP would have capped it there).
  Harness h(4, Bandwidth::Gbps(10), 400000, /*ecn=*/30000);
  h.Flow(0, 1, 8 * 1000 * 1000, CcAlgorithm::kCubic);
  h.Flow(2, 1, 8 * 1000 * 1000, CcAlgorithm::kCubic);
  int64_t max_q = 0;
  for (Time t = Milliseconds(1); t < Milliseconds(6); t += Microseconds(50)) {
    h.RunUntil(t);
    max_q = std::max(max_q, h.topo.sw(h.net).QueueLengthBytes(1, 0));
  }
  h.Run();
  // Queue grows far beyond the ECN threshold (DCTCP would have capped it).
  EXPECT_GT(max_q, 100000);
}

TEST(TransportTest, RttEstimateConvergesAndRtoFloors) {
  Harness h;
  const uint64_t id = h.Flow(0, 1, 5 * 1000 * 1000);
  h.RunUntil(Microseconds(300));  // mid-transfer
  Connection* conn = h.manager->FindConnection(id);
  ASSERT_NE(conn, nullptr);
  EXPECT_FALSE(conn->completed());
  // Base RTT ~8us; the min RTO floor (5ms) dominates RTO.
  EXPECT_EQ(conn->rto(), h.manager->config().min_rto);
  h.Run();
}

TEST(TransportTest, DctcpAlphaDecaysWithoutCongestion) {
  Harness h;
  const uint64_t id = h.Flow(0, 1, 2 * 1000 * 1000);
  h.RunUntil(Microseconds(500));
  Connection* conn = h.manager->FindConnection(id);
  ASSERT_NE(conn, nullptr);
  const double early_alpha = conn->dctcp_alpha();
  h.RunUntil(Milliseconds(4));
  conn = h.manager->FindConnection(id);
  if (conn != nullptr) {
    EXPECT_LT(conn->dctcp_alpha(), early_alpha);  // decays from init toward 0
  }
  h.Run();
  EXPECT_EQ(h.manager->completions().Count(), 1u);
}

TEST(TransportTest, ManyParallelFlowsAllComplete) {
  Harness h(8, Bandwidth::Gbps(10), 500000, 30000);
  int n = 0;
  for (int s = 0; s < 8; ++s) {
    for (int d = 0; d < 8; ++d) {
      if (s == d) continue;
      h.Flow(s, d, 50000, CcAlgorithm::kDctcp, Microseconds(10 * n));
      ++n;
    }
  }
  h.Run();
  EXPECT_EQ(h.manager->completions().Count(), static_cast<size_t>(n));
}

// A four-host star on `shards` shards, with the first host (node 1; the
// switch is node 0) on the last shard and every other node on shard 0.
struct EngineStar {
  static constexpr Time kPropagation = Microseconds(1);

  explicit EngineStar(int shards)
      : ssim(sim::ShardedSimulator::Options{
            .shards = shards, .lookahead = kPropagation, .seed = 7}),
        net(&ssim, [shards](net::NodeId id) { return id == 1 ? shards - 1 : 0; }) {
    net::StarConfig cfg;
    cfg.num_hosts = 4;
    cfg.host_rate = Bandwidth::Gbps(10);
    cfg.link_propagation = kPropagation;
    cfg.switch_config.tm.buffer_bytes = 500000;
    cfg.switch_config.scheme_factory = [] {
      return std::make_unique<bm::DynamicThreshold>();
    };
    topo = net::BuildStar(net, cfg);
    manager = std::make_unique<FlowManager>(&net);
    for (auto h : topo.hosts) manager->AttachHost(h);
  }

  void RunUntil(Time t) { ssim.RunUntil(t); }
  net::Host& host(int i) { return topo.host(net, i); }

  sim::ShardedSimulator ssim;
  net::Network net;
  net::StarTopology topo;
  std::unique_ptr<FlowManager> manager;
};

// A segment of a flow whose connection is already freed gets the ACK the
// live receiver would send: cumulative over the whole flow, echoing the
// segment's CE mark. The 1-shard engine and a 2-shard engine (source and
// destination on different shards) agree exactly.
TEST(FinishedFlowTest, LateSegmentDrawsTheFullAckOnEveryEngine) {
  constexpr int64_t kBytes = 20000;
  std::vector<FlowManager::Counters> totals;
  for (const int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EngineStar h(shards);
    FlowParams p;
    p.src = h.topo.hosts[0];
    p.dst = h.topo.hosts[1];
    p.size_bytes = kBytes;
    const uint64_t id = h.manager->StartFlow(p);
    h.RunUntil(Milliseconds(1));
    ASSERT_EQ(h.manager->counters().flows_completed, 1);
    EXPECT_EQ(h.manager->FindConnection(id), nullptr) << "freed after completion";
    const FlowManager::Counters before = h.manager->counters();

    // A late ACK of the finished flow reaches the sender and is dropped.
    Packet late_ack;
    late_ack.kind = PacketKind::kAck;
    late_ack.flow_id = id;
    late_ack.src = p.dst;
    late_ack.dst = p.src;
    late_ack.size_bytes = 64;
    late_ack.ack_seq = kBytes;
    h.host(1).Send(late_ack);
    h.RunUntil(Milliseconds(2));

    // From here on the sender's arrivals are recorded, not dispatched.
    std::vector<Packet> acks;
    h.host(0).set_receiver([&acks](const Packet& pkt) { acks.push_back(pkt); });
    // A duplicate of the flow's second segment, CE-marked, and an open-loop
    // packet, which has no flow record and must draw no ACK.
    Packet seg;
    seg.kind = PacketKind::kData;
    seg.flow_id = id;
    seg.src = p.src;
    seg.dst = p.dst;
    seg.traffic_class = 0;
    seg.seq = 1460;
    seg.payload = 1460;
    seg.size_bytes = 1500;
    seg.ce = true;
    seg.ts_sent = Microseconds(123);
    Packet open_loop = seg;
    open_loop.flow_id = net::Network::kOpenLoopFlowIdBase;
    open_loop.ce = false;
    h.host(0).Send(seg);
    h.host(0).Send(open_loop);
    const int64_t rx_before = h.host(1).rx_packets();
    h.RunUntil(Milliseconds(3));
    EXPECT_EQ(h.host(1).rx_packets(), rx_before + 2);

    ASSERT_EQ(acks.size(), 1u);
    const Packet& ack = acks[0];
    EXPECT_TRUE(ack.IsAck());
    EXPECT_EQ(ack.flow_id, id);
    EXPECT_EQ(ack.src, p.dst);
    EXPECT_EQ(ack.dst, p.src);
    EXPECT_EQ(ack.ack_seq, static_cast<uint64_t>(kBytes)) << "cumulative over the whole flow";
    EXPECT_TRUE(ack.ece) << "echoes the segment's CE mark";
    EXPECT_EQ(ack.ts_sent, Microseconds(123));
    const FlowManager::Counters after = h.manager->counters();
    EXPECT_EQ(after.acks_sent, before.acks_sent + 1);
    EXPECT_EQ(after.data_packets_sent, before.data_packets_sent);
    EXPECT_EQ(after.flows_completed, 1);
    totals.push_back(after);
  }
  for (const FlowManager::Counters& c : totals) {
    EXPECT_EQ(c.flows_started, totals[0].flows_started);
    EXPECT_EQ(c.flows_completed, totals[0].flows_completed);
    EXPECT_EQ(c.data_packets_sent, totals[0].data_packets_sent);
    EXPECT_EQ(c.retransmitted_packets, totals[0].retransmitted_packets);
    EXPECT_EQ(c.acks_sent, totals[0].acks_sent);
    EXPECT_EQ(c.rtos, totals[0].rtos);
    EXPECT_EQ(c.fast_retransmits, totals[0].fast_retransmits);
  }
}

// Transport flows and open-loop streams share the network's flow-id space
// (FlowManager dispatches by id alone), so each side checks its range.
TEST(FlowIdRangeDeathTest, TransportFlowInOpenLoopRangeDies) {
  Harness h;
  FlowParams p;
  p.id = net::Network::kOpenLoopFlowIdBase;
  p.src = h.topo.hosts[0];
  p.dst = h.topo.hosts[1];
  p.size_bytes = 1000;
  EXPECT_DEATH(h.manager->StartFlow(p), "is in the open-loop range");
}

TEST(FlowIdRangeDeathTest, OpenLoopStreamWithTransportIdDies) {
  Harness h;
  workload::OpenLoopConfig ol;
  ol.src = h.topo.hosts[0];
  ol.dst = h.topo.hosts[1];
  ol.flow_id = 900;
  EXPECT_DEATH(workload::OpenLoopSender(&h.net, ol), "outside the open-loop range");
}

TEST(TransportTest, SlowdownUsesIdealDuration) {
  Harness h;
  FlowParams p;
  p.src = h.topo.hosts[0];
  p.dst = h.topo.hosts[1];
  p.size_bytes = 100000;
  p.ideal_duration = Microseconds(10);
  h.manager->StartFlow(p);
  h.Run();
  const auto slowdowns = h.manager->completions().Slowdowns();
  ASSERT_EQ(slowdowns.Count(), 1u);
  EXPECT_GT(slowdowns.Mean(), 1.0);
}

}  // namespace
}  // namespace occamy::transport
