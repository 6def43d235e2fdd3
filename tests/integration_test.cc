// End-to-end integration tests reproducing the paper's headline behaviours
// at small scale: burst absorption (Fig. 12), buffer choking mitigation
// (Fig. 15), line-rate preservation under expulsion (§4.5), and
// system-wide conservation invariants.
#include <gtest/gtest.h>

#include "src/exp/dpdk_run.h"
#include "src/exp/scenarios.h"
#include "src/workload/open_loop.h"
#include "src/workload/pregen.h"

namespace occamy::exp {
namespace {

// P4-testbed shape (§6.1): 2 fast senders, 2 slow receivers, one shared
// buffer. Long-lived overload to receiver A, then a burst to receiver B.
struct BurstResult {
  int64_t burst_drops = 0;
  int64_t burst_packets = 0;
  int64_t delivered_to_burst_receiver = 0;
  double LossRate() const {
    return burst_packets == 0
               ? 0.0
               : static_cast<double>(burst_drops) / static_cast<double>(burst_packets);
  }
};

BurstResult RunBurst(Scheme scheme, double alpha, int64_t burst_bytes) {
  StarSpec spec;
  spec.num_hosts = 4;
  spec.host_rates = {Bandwidth::Gbps(100), Bandwidth::Gbps(100), Bandwidth::Gbps(10),
                     Bandwidth::Gbps(10)};
  spec.link_propagation = Microseconds(1);
  spec.buffer_bytes = 2 * 1000 * 1000;
  spec.ecn_threshold_bytes = 0;  // open loop: no ECN
  spec.scheme = scheme;
  spec.alphas = {alpha};
  StarScenario s(spec);

  constexpr uint64_t kLongFlow = net::Network::kOpenLoopFlowIdBase + 1;
  constexpr uint64_t kBurstFlow = net::Network::kOpenLoopFlowIdBase + 2;
  BurstResult result;
  s.sw().set_drop_hook([&](const Packet& pkt, tm::DropReason) {
    if (pkt.flow_id == kBurstFlow) ++result.burst_drops;
  });

  workload::OpenLoopConfig lived;
  lived.src = s.topo.hosts[0];
  lived.dst = s.topo.hosts[2];
  lived.rate = Bandwidth::Gbps(100);
  lived.flow_id = kLongFlow;
  lived.stop = Milliseconds(1);
  workload::OpenLoopSender long_lived(&s.net, lived);
  long_lived.Start();

  workload::OpenLoopConfig burst;
  burst.src = s.topo.hosts[1];
  burst.dst = s.topo.hosts[3];
  burst.rate = Bandwidth::Gbps(100);
  burst.flow_id = kBurstFlow;
  burst.start = Microseconds(400);  // after the long-lived queue reaches steady state
  burst.total_bytes = burst_bytes;
  workload::OpenLoopSender burst_sender(&s.net, burst);
  burst_sender.Start();

  s.ssim.RunUntil(Milliseconds(4));
  result.burst_packets = burst_sender.packets_sent();
  result.delivered_to_burst_receiver = s.topo.host(s.net, 3).rx_packets();
  return result;
}

TEST(BurstAbsorptionTest, OccamyAbsorbsMoreThanDt) {
  // 600KB burst into a 2MB buffer pre-filled by the long-lived queue:
  // DT (alpha=4) reserves only ~400KB and releases slowly -> drops.
  // Occamy (alpha=4 here for apples-to-apples) expels the over-allocated
  // long-lived queue and absorbs the burst.
  const BurstResult dt = RunBurst(Scheme::kDt, 4.0, 600 * 1000);
  const BurstResult occ = RunBurst(Scheme::kOccamy, 4.0, 600 * 1000);
  EXPECT_GT(dt.LossRate(), 0.02);
  EXPECT_LT(occ.LossRate(), dt.LossRate() / 2.0);
}

TEST(BurstAbsorptionTest, ConservationHolds) {
  const BurstResult r = RunBurst(Scheme::kOccamy, 4.0, 500 * 1000);
  // Every burst packet was either delivered or dropped (none in flight after
  // the long drain window).
  EXPECT_EQ(r.burst_packets, r.delivered_to_burst_receiver + r.burst_drops);
}

TEST(BurstAbsorptionTest, PushoutIsUpperBound) {
  const BurstResult push = RunBurst(Scheme::kPushout, 1.0, 600 * 1000);
  const BurstResult occ = RunBurst(Scheme::kOccamy, 8.0, 600 * 1000);
  // Pushout (ideal preemption) absorbs the burst entirely; Occamy is close.
  EXPECT_EQ(push.burst_drops, 0);
  EXPECT_LT(occ.LossRate(), 0.05);
}

TEST(LineRateTest, ExpulsionDoesNotDegradeEgress) {
  // Under identical overload, the burst receiver's delivered volume with
  // Occamy (which expels packets concurrently) must match DT's within 2%:
  // expulsion uses only redundant memory bandwidth.
  const BurstResult dt = RunBurst(Scheme::kDt, 4.0, 0);     // no burst: pure egress
  const BurstResult occ = RunBurst(Scheme::kOccamy, 4.0, 0);
  // Compare long-lived deliveries at receiver 2 via a dedicated run below.
  (void)dt;
  (void)occ;
  auto run_delivered = [](Scheme scheme) {
    StarSpec spec;
    spec.num_hosts = 4;
    spec.host_rates = {Bandwidth::Gbps(100), Bandwidth::Gbps(100), Bandwidth::Gbps(10),
                       Bandwidth::Gbps(10)};
    spec.buffer_bytes = 2 * 1000 * 1000;
    spec.ecn_threshold_bytes = 0;
    spec.scheme = scheme;
    spec.alphas = {4.0};
    StarScenario s(spec);
    workload::OpenLoopConfig lived;
    lived.src = s.topo.hosts[0];
    lived.dst = s.topo.hosts[2];
    lived.rate = Bandwidth::Gbps(100);
    lived.flow_id = net::Network::kOpenLoopFlowIdBase + 1;
    lived.stop = Milliseconds(2);
    workload::OpenLoopSender sender(&s.net, lived);
    sender.Start();
    // A second over-subscribed queue keeps the expulsion engine busy.
    workload::OpenLoopConfig second = lived;
    second.src = s.topo.hosts[1];
    second.dst = s.topo.hosts[3];
    second.flow_id = net::Network::kOpenLoopFlowIdBase + 2;
    workload::OpenLoopSender sender2(&s.net, second);
    sender2.Start();
    s.ssim.RunUntil(Milliseconds(2));
    return s.topo.host(s.net, 2).rx_bytes() + s.topo.host(s.net, 3).rx_bytes();
  };
  const int64_t dt_bytes = run_delivered(Scheme::kDt);
  const int64_t occ_bytes = run_delivered(Scheme::kOccamy);
  EXPECT_NEAR(static_cast<double>(occ_bytes), static_cast<double>(dt_bytes),
              static_cast<double>(dt_bytes) * 0.02);
}

TEST(ChokingTest, OccamyShieldsHighPriorityFromLowPriorityBuffer) {
  // §6.2 Fig. 15 shape: strict priority; low-priority traffic holds buffer
  // while draining slowly. The LP queues are kept saturated with open-loop
  // streams: kernel CUBIC with SACK sustains full LP queues in the paper's
  // testbed, and this transport, which has no SACK, cannot. A
  // high-priority DCTCP incast then needs the buffer: Occamy expels the LP
  // over-allocation, DT cannot.
  auto run_qct = [](Scheme scheme, bool with_lp) {
    StarSpec spec;
    spec.num_hosts = 8;
    // As in the paper's CE6865 setup: 8 class-of-service queues, one high
    // priority (alpha=8) and seven low priority (alpha=1). Seven congested
    // LP queues shrink the free buffer to ~B/8.
    spec.queues_per_port = 8;
    spec.scheduler = tm::SchedulerKind::kStrictPriority;
    spec.scheme = scheme;
    spec.alphas = {8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
    spec.buffer_bytes = 410 * 1000;
    spec.ecn_threshold_bytes = 65 * 1500;
    StarScenario s(spec);

    std::vector<std::unique_ptr<workload::OpenLoopSender>> lp;
    if (with_lp) {
      // 7 saturating LP streams from two dedicated senders, one per LP
      // class, all to the query client's port (11.9G into a 10G port).
      for (int i = 0; i < 7; ++i) {
        workload::OpenLoopConfig cfg;
        cfg.src = s.topo.hosts[static_cast<size_t>(6 + (i % 2))];
        cfg.dst = s.topo.hosts[0];
        cfg.rate = Bandwidth::Mbps(1700);
        cfg.traffic_class = static_cast<uint8_t>(1 + i);
        cfg.flow_id = net::Network::kOpenLoopFlowIdBase + static_cast<uint64_t>(i);
        cfg.stop = Milliseconds(100);
        lp.push_back(std::make_unique<workload::OpenLoopSender>(&s.net, cfg));
        lp.back()->Start();
      }
    }

    workload::IncastConfig q;
    q.clients = {s.topo.hosts[0]};
    q.servers = {s.topo.hosts[1], s.topo.hosts[2], s.topo.hosts[3], s.topo.hosts[4],
                 s.topo.hosts[5], s.topo.hosts[1], s.topo.hosts[2], s.topo.hosts[3],
                 s.topo.hosts[4], s.topo.hosts[5]};
    q.fanin = 10;  // two responders per server host, as in §6.2
    q.query_size_bytes = 600 * 1000;  // ~150% of the buffer
    q.traffic_class = 0;
    q.max_queries = 5;
    q.queries_per_second = 150;
    q.stop = Milliseconds(80);
    q.start = Milliseconds(10);  // after LP queues are established
    const workload::PregeneratedIncast incast = workload::PregenerateIncast(q);
    const std::vector<uint64_t> ids = workload::StartFlows(*s.manager, incast.flows);
    s.ssim.RunUntil(Milliseconds(300));
    const stats::CompletionCollector qct =
        workload::DeriveIncastQct(incast, ids, s.manager->completions(), nullptr);
    EXPECT_EQ(qct.Count(), incast.queries.size());
    return qct.DurationsMs().Mean();
  };

  const double dt_with = run_qct(Scheme::kDt, true);
  const double dt_without = run_qct(Scheme::kDt, false);
  const double occ_with = run_qct(Scheme::kOccamy, true);
  const double occ_without = run_qct(Scheme::kOccamy, false);

  const double dt_degradation = dt_with / dt_without;
  const double occ_degradation = occ_with / occ_without;
  // DT suffers heavily from buffer choking (paper: up to ~6.6x avg QCT);
  // Occamy is essentially unaffected.
  EXPECT_GT(dt_degradation, 3.0);
  EXPECT_LT(occ_degradation, 1.5);
  EXPECT_LT(occ_with, dt_with / 2.0);
}

// Packets dequeued from an LP class (1-7) on any port but the query
// client's (port 0). Every LP stream targets the client, so only a
// transport ACK of an LP packet can leave through another port in an LP
// class.
int64_t LpDequeuesOffClientPort(net::SwitchNode& sw) {
  int64_t dequeued = 0;
  for (int port = 1; port < sw.num_ports(); ++port) {
    auto& part = sw.partition_for_port(port);
    for (int cls = 1; cls < part.queues_per_port(); ++cls) {
      dequeued += static_cast<int64_t>(
          part.queue_delay_hist(part.QueueIndex(sw.local_port(port), cls)).count());
    }
  }
  return dequeued;
}

// The choking layout (Fig. 15) at query load 0.5 for 20 ms: enough incast
// flows that transport ids would pass the LP streams' ids if the two shared
// one id range.
TEST(OpenLoopFlowIdTest, TransportFlowsNeverClaimLpStreams) {
  for (const uint64_t seed : {1, 5, 9}) {
    DpdkRunSpec run;
    run.scheme = Scheme::kOccamy;
    run.queues_per_port = 8;
    run.scheduler = tm::SchedulerKind::kStrictPriority;
    run.alphas = {8.0, 1, 1, 1, 1, 1, 1, 1};
    run.bg = DpdkRunSpec::Bg::kSaturatingLp;
    run.bg_load = 1.0;
    run.query_bytes = run.buffer_bytes * 2;
    run.query_load = 0.5;
    run.duration = run.max_duration = Milliseconds(20);
    run.min_queries = 0;
    run.seed = seed;
    const StarSpec star = MakeDpdkStarSpec(run);
    const Time duration = DpdkDuration(run, star, BenchScale::kDefault);
    StarScenario s(star);
    const auto lp = StartDpdkLpStreams(run, s, duration);
    const workload::PregeneratedIncast incast = workload::PregenerateIncast(
        MakeDpdkQueryConfig(run, s.topo.hosts, star, duration, s.IdealFn(), nullptr));
    // Transport ids must run past 906, the LP streams' ids before the
    // reserved range, for the run to show a collision.
    ASSERT_GT(incast.flows.size(), 906u) << "seed " << seed;
    for (const auto& params : incast.flows) s.manager->StartFlow(params);
    s.ssim.RunUntil(duration + DpdkDrain());
    EXPECT_EQ(LpDequeuesOffClientPort(s.sw()), 0) << "seed " << seed;
  }
}

// The fabric smoke run's traffic: web-search background at 40% load and
// incast queries among all hosts, both arriving for 5 ms.
struct WebSearchPlusIncast {
  workload::IncastConfig q;
  std::vector<uint64_t> bg_ids;
  workload::PregeneratedIncast incast;
  std::vector<uint64_t> ids;
};

WebSearchPlusIncast StartWebSearchPlusIncast(FabricScenario& s) {
  WebSearchPlusIncast run;
  workload::PoissonFlowConfig bg;
  bg.hosts = s.topo.hosts;
  bg.load = 0.4;
  bg.host_rate = s.topo.config.host_rate;
  bg.size_dist = workload::WebSearchDistribution();
  bg.stop = Milliseconds(5);
  bg.ideal_fn = s.IdealFn();
  run.bg_ids = workload::StartFlows(*s.manager, workload::PregeneratePoissonFlows(bg));

  workload::IncastConfig& q = run.q;
  q.clients = s.topo.hosts;
  q.servers = s.topo.hosts;
  q.fanin = 6;
  q.query_size_bytes = s.buffer_per_partition * 4 / 10;
  q.queries_per_second = 2000;
  q.stop = Milliseconds(5);
  q.ideal_fn = s.IdealFn();
  q.query_ideal_fn = s.QueryIdealFn();
  run.incast = workload::PregenerateIncast(q);
  run.ids = workload::StartFlows(*s.manager, run.incast.flows);
  return run;
}

TEST(FabricSmokeTest, WebSearchPlusIncastRunsToCompletion) {
  FabricSpec spec;
  spec.scheme = Scheme::kOccamy;
  FabricScenario s(spec, BenchScale::kSmoke);
  const WebSearchPlusIncast run = StartWebSearchPlusIncast(s);

  s.ssim.RunUntil(Milliseconds(60));
  EXPECT_GT(run.bg_ids.size(), 0u);
  EXPECT_GT(run.incast.queries.size(), 3u);
  const stats::CompletionCollector qct = workload::DeriveIncastQct(
      run.incast, run.ids, s.manager->completions(), run.q.query_ideal_fn);
  // The vast majority of queries complete within the drain window.
  EXPECT_GE(qct.Count(), run.incast.queries.size() * 8 / 10);
  // Slowdowns are sane (>= ~1).
  const auto slow = qct.Slowdowns();
  if (!slow.Empty()) {
    EXPECT_GT(slow.Mean(), 0.9);
  }
}

// Every link of the fabric and of the star has one propagation delay and
// a shard's clock never goes back, so on one shard each delivery is pushed
// no earlier than the one before it and pops from the event queue's FIFO
// (src/sim/event_queue.h): none falls back to the near heap. A topology
// with unequal link delays breaks this, and this test with it.
TEST(DeliveryFifoTest, OneShardRunsPushDeliveriesInArrivalOrder) {
  {
    FabricSpec spec;
    spec.scheme = Scheme::kOccamy;
    FabricScenario s(spec, BenchScale::kSmoke);
    StartWebSearchPlusIncast(s);
    s.ssim.RunUntil(Milliseconds(60));
    const sim::EventQueue::Counts& counts = s.ssim.shard(0).queue_counts();
    EXPECT_GT(counts.fifo_deliveries, 1000u) << "fabric";
    EXPECT_EQ(counts.fallbacks, 0u) << "fabric";
  }
  {
    StarSpec spec;
    spec.scheme = Scheme::kOccamy;
    StarScenario s(spec);
    workload::IncastConfig q;
    q.clients = s.topo.hosts;
    q.servers = s.topo.hosts;
    q.fanin = 6;
    q.query_size_bytes = spec.buffer_bytes;
    q.queries_per_second = 2000;
    q.stop = Milliseconds(5);
    q.ideal_fn = s.IdealFn();
    workload::StartFlows(*s.manager, workload::PregenerateIncast(q).flows);
    s.ssim.RunUntil(Milliseconds(60));
    const sim::EventQueue::Counts& counts = s.ssim.shard(0).queue_counts();
    EXPECT_GT(counts.fifo_deliveries, 1000u) << "star";
    EXPECT_EQ(counts.fallbacks, 0u) << "star";
  }
}

}  // namespace
}  // namespace occamy::exp
