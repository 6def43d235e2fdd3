// Shard-affinity checker (OCCAMY_ASSERT_SHARD, src/sim/shard_checks.h):
// a clean cross-shard run passes with the checks compiled in, and a
// deliberately mis-pinned event — work scheduled on one shard that touches
// state owned by another — aborts deterministically on the first packet,
// with no racy interleaving required. The death test self-skips when the
// build does not define OCCAMY_SHARD_CHECKS (the checks compile out).
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "src/bm/dynamic_threshold.h"
#include "src/net/host.h"
#include "src/net/switch.h"
#include "src/net/topology.h"
#include "src/sim/sharded_simulator.h"
#include "src/workload/open_loop.h"

namespace occamy {
namespace {

constexpr int kShards = 2;

// 8-host star spread over 2 shards by hand: the switch sits on shard 0 and
// net::StarShardOf places each host by its 2-port partition, so hosts 0-1
// ride shard 0 (partition 0) and hosts 6-7 ride shard 1 (partition 3).
net::StarConfig ShardedStar() {
  net::StarConfig cfg;
  cfg.num_hosts = 8;
  cfg.link_propagation = Microseconds(2);
  cfg.switch_config.ports_per_partition = 2;
  cfg.switch_config.tm.buffer_bytes = 100000;
  cfg.switch_config.scheme_factory = [] { return std::make_unique<bm::DynamicThreshold>(); };
  return cfg;
}

sim::ShardedSimulator::Options EngineOptions(const net::StarConfig& cfg, bool use_threads) {
  sim::ShardedSimulator::Options opts;
  opts.shards = kShards;
  opts.lookahead = cfg.link_propagation;
  opts.use_threads = use_threads;
  return opts;
}

net::Network MakeNetwork(sim::ShardedSimulator* ssim, const net::StarConfig& cfg) {
  return net::Network(ssim,
                      [cfg](net::NodeId id) { return net::StarShardOf(cfg, kShards, id); });
}

// Cross-shard open-loop traffic through every assert site (host TX, switch
// enqueue/dequeue, delivery drain) runs clean: correctly pinned work never
// trips the checker, threaded or round-robin.
TEST(ShardChecksTest, CleanShardedRunPasses) {
  for (const bool threads : {true, false}) {
    const net::StarConfig cfg = ShardedStar();
    sim::ShardedSimulator ssim(EngineOptions(cfg, threads));
    net::Network net = MakeNetwork(&ssim, cfg);
    net::StarTopology topo = net::BuildStar(net, cfg);
    workload::OpenLoopConfig ol;
    ol.src = topo.hosts[0];  // shard 0
    ol.dst = topo.hosts[7];  // shard 1: the delivery crosses the barrier
    ol.packet_bytes = 1000;
    ol.total_bytes = 20000;
    workload::OpenLoopSender sender(&net, ol);
    sender.Start();
    ssim.RunUntil(Milliseconds(2));
    EXPECT_EQ(sender.packets_sent(), 20) << "threads=" << threads;
    EXPECT_EQ(topo.host(net, 7).rx_packets(), 20) << "threads=" << threads;
  }
}

// An event scheduled on shard 0 that pokes a host owned by shard 1 must
// abort with the affinity diagnostic. Round-robin mode (use_threads=false)
// keeps the death test single-threaded, and the checker — unlike TSan —
// fires on every run, not only on an unlucky interleaving.
TEST(ShardChecksDeathTest, MisPinnedSendTripsChecker) {
#ifndef OCCAMY_SHARD_CHECKS
  GTEST_SKIP() << "built without OCCAMY_SHARD_CHECKS";
#else
  const net::StarConfig cfg = ShardedStar();
  sim::ShardedSimulator ssim(EngineOptions(cfg, /*use_threads=*/false));
  net::Network net = MakeNetwork(&ssim, cfg);
  net::StarTopology topo = net::BuildStar(net, cfg);
  net::Host& wrong_shard_host = topo.host(net, 7);  // owned by shard 1
  const net::NodeId dst = topo.hosts[0];
  ssim.shard(0).At(Microseconds(1), [&wrong_shard_host, dst] {
    Packet pkt;
    pkt.size_bytes = 100;
    pkt.dst = dst;
    wrong_shard_host.Send(std::move(pkt));  // Host::Send asserts affinity
  });
  EXPECT_DEATH(ssim.RunUntil(Milliseconds(1)), "shard-affinity violation");
#endif
}

// Route-epoch publication (self-healing reroute, src/fault) is pinned to
// the switch's shard: the marker event the injector schedules must run
// there, and a mis-pinned publication aborts rather than racing the
// switch's routing tables.
TEST(ShardChecksDeathTest, MisPinnedRouteEpochPublicationTripsChecker) {
#ifndef OCCAMY_SHARD_CHECKS
  GTEST_SKIP() << "built without OCCAMY_SHARD_CHECKS";
#else
  const net::StarConfig cfg = ShardedStar();
  sim::ShardedSimulator ssim(EngineOptions(cfg, /*use_threads=*/false));
  net::Network net = MakeNetwork(&ssim, cfg);
  net::StarTopology topo = net::BuildStar(net, cfg);
  // The switch rides shard 0; shard 1 is the wrong home.
  auto& sw = static_cast<net::SwitchNode&>(net.node(topo.switch_id));
  ssim.shard(1).At(Microseconds(1), [&sw] { sw.OnRouteEpochPublished(); });
  EXPECT_DEATH(ssim.RunUntil(Milliseconds(1)), "shard-affinity violation");
#endif
}

// Outside a sharded run the shards are unbound, so single-simulator setup
// code (and plain unsharded tests) may call assert-instrumented paths
// freely — Host::Send before RunUntil must not trip even with checks on.
TEST(ShardChecksTest, UnboundOutsideRunsNeverTrips) {
  const net::StarConfig cfg = ShardedStar();
  sim::ShardedSimulator ssim(EngineOptions(cfg, /*use_threads=*/false));
  net::Network net = MakeNetwork(&ssim, cfg);
  net::StarTopology topo = net::BuildStar(net, cfg);
  Packet pkt;
  pkt.size_bytes = 100;
  pkt.dst = topo.hosts[0];
  EXPECT_TRUE(topo.host(net, 7).Send(std::move(pkt)));  // setup time: unbound
  ssim.RunUntil(Milliseconds(1));
  EXPECT_EQ(topo.host(net, 0).rx_packets(), 1);
}

}  // namespace
}  // namespace occamy
