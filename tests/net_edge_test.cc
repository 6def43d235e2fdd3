// Edge-case tests for the network layer: config broadcasting/defaults,
// route misses, host NIC queue limits, and open-loop sender termination.
#include <gtest/gtest.h>

#include <memory>

#include "src/bm/dynamic_threshold.h"
#include "src/net/topology.h"
#include "src/workload/open_loop.h"
#include "tests/one_shard.h"

namespace occamy::net {
namespace {

SwitchConfig MinimalSwitch() {
  SwitchConfig cfg;
  cfg.num_ports = 4;
  cfg.tm.buffer_bytes = 100000;
  cfg.scheme_factory = [] { return std::make_unique<bm::DynamicThreshold>(); };
  return cfg;
}

TEST(SwitchConfigTest, EmptyRateVectorsDefault) {
  testing::OneShardNet h(Microseconds(2));
  Network& net = h.net;
  auto sw = std::make_unique<SwitchNode>(MinimalSwitch());
  SwitchNode* ptr = sw.get();
  net.AddNode(std::move(sw));
  ptr->Initialize();
  EXPECT_EQ(ptr->num_ports(), 4);
  EXPECT_EQ(ptr->num_partitions(), 1);
}

TEST(SwitchTest, RouteMissDropsSilently) {
  testing::OneShardNet h(Microseconds(2));
  Network& net = h.net;
  auto sw = std::make_unique<SwitchNode>(MinimalSwitch());
  SwitchNode* ptr = sw.get();
  net.AddNode(std::move(sw));
  ptr->Initialize();
  Packet p;
  p.dst = 999;  // no route
  p.size_bytes = 100;
  ptr->ReceivePacket(0, p);  // must not crash or enqueue
  EXPECT_EQ(ptr->TotalEnqueued(), 0);
}

TEST(HostTest, TxQueueLimitDropsExcess) {
  testing::OneShardNet h(Microseconds(2));
  Network& net = h.net;
  StarConfig cfg;
  cfg.num_hosts = 2;
  cfg.host_rate = Bandwidth::Gbps(10);
  cfg.switch_config = MinimalSwitch();
  auto topo = BuildStar(net, cfg);

  // A host with a tiny (3000-byte) NIC queue.
  auto extra = std::make_unique<Host>(/*tx_queue_limit_bytes=*/3000);
  Host* host = extra.get();
  net.AddNode(std::move(extra));
  host->ConnectUplink({topo.switch_id, 1}, Bandwidth::Gbps(10), Microseconds(1));
  // The first packet starts transmitting immediately (leaves the queue);
  // the next two fill the queue; the fourth overflows.
  Packet p;
  p.size_bytes = 1500;
  p.src = 0;
  p.dst = topo.hosts[0];
  EXPECT_TRUE(host->Send(p));  // in flight
  EXPECT_TRUE(host->Send(p));  // queued (1500)
  EXPECT_TRUE(host->Send(p));  // queued (3000)
  EXPECT_FALSE(host->Send(p));  // over the cap
  EXPECT_EQ(host->tx_drops(), 1);
}

TEST(OpenLoopTest, StopsAtTotalBytes) {
  testing::OneShardNet h(Microseconds(2));
  Network& net = h.net;
  StarConfig cfg;
  cfg.num_hosts = 2;
  cfg.host_rate = Bandwidth::Gbps(10);
  cfg.switch_config = MinimalSwitch();
  auto topo = BuildStar(net, cfg);
  workload::OpenLoopConfig ol;
  ol.src = topo.hosts[0];
  ol.dst = topo.hosts[1];
  ol.packet_bytes = 1000;
  ol.total_bytes = 5500;  // 6 packets (last one crosses the limit)
  workload::OpenLoopSender sender(&net, ol);
  sender.Start();
  h.Run();
  EXPECT_EQ(sender.packets_sent(), 6);
  EXPECT_EQ(topo.host(net, 1).rx_packets(), 6);
}

TEST(OpenLoopTest, StopsAtStopTime) {
  testing::OneShardNet h(Microseconds(2));
  Network& net = h.net;
  StarConfig cfg;
  cfg.num_hosts = 2;
  cfg.host_rate = Bandwidth::Gbps(10);
  cfg.switch_config = MinimalSwitch();
  auto topo = BuildStar(net, cfg);
  workload::OpenLoopConfig ol;
  ol.src = topo.hosts[0];
  ol.dst = topo.hosts[1];
  ol.packet_bytes = 1250;  // 1us at 10G
  ol.stop = Microseconds(10);
  workload::OpenLoopSender sender(&net, ol);
  sender.Start();
  h.Run();
  // Injection every 1us from t=0 through t=10: 11 packets.
  EXPECT_EQ(sender.packets_sent(), 11);
}

TEST(NetworkTest, NodeIdsSequential) {
  testing::OneShardNet h(Microseconds(2));
  Network& net = h.net;
  EXPECT_EQ(net.AddNode(std::make_unique<Host>()), 0u);
  EXPECT_EQ(net.AddNode(std::make_unique<Host>()), 1u);
  EXPECT_EQ(net.num_nodes(), 2u);
}

TEST(NetworkTest, FlowIdsUnique) {
  testing::OneShardNet h(Microseconds(2));
  Network& net = h.net;
  const uint64_t a = net.NextFlowId();
  const uint64_t b = net.NextFlowId();
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace occamy::net
