// Per-layer perf ladder: host nanoseconds per operation for each stage a
// packet crosses — the event queue, cell memory and PD queues, BM admission
// per scheme, the expulsion step, TM dequeue per scheduler, switch
// forwarding, the cross-shard mailbox, and the transport ACK path — plus
// the comparator-tree maximum finder of src/hw.
//
// Every rung builds its objects directly from the src/ headers and times
// their public functions from outside; nothing here is compiled into the
// simulator. Each rung reports the best of three trials, each trial at
// least --trial-seconds long, and the whole ladder prints one JSON object
// {"<rung>": ns_per_op, ...} on stdout.
//
// The rungs deliberately avoid bench/common and tests/ headers and the
// single-threaded net::Network(sim::Simulator*) constructor: the network
// rungs run on a 1- or 2-shard inline sim::ShardedSimulator, the engine
// every scenario will use once the legacy path is gone.
//
// Usage: layer_ladder [--trial-seconds=S]   (default 0.1)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/bm/abm.h"
#include "src/bm/bm_scheme.h"
#include "src/bm/dynamic_threshold.h"
#include "src/bm/enhanced_dt.h"
#include "src/bm/pushout.h"
#include "src/bm/quasi_pushout.h"
#include "src/bm/static_threshold.h"
#include "src/bm/tm_view.h"
#include "src/bm/traffic_aware_dt.h"
#include "src/buffer/shared_buffer.h"
#include "src/core/bitmap.h"
#include "src/core/head_drop_selector.h"
#include "src/core/occamy_bm.h"
#include "src/core/round_robin_arbiter.h"
#include "src/hw/circuits.h"
#include "src/net/host.h"
#include "src/net/network.h"
#include "src/net/node.h"
#include "src/net/topology.h"
#include "src/sim/event_queue.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"
#include "src/tm/scheduler.h"
#include "src/tm/traffic_manager.h"
#include "src/transport/flow_manager.h"
#include "src/util/bandwidth.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace occamy::ladder {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Results land here so the optimizer cannot drop the timed work.
volatile uint64_t g_sink = 0;

// One timed trial: performs about `n` operations and reports how many it
// actually did and how long the timed part took (set-up excluded).
struct Trial {
  int64_t ops = 0;
  double seconds = 0;
};
using TrialFn = std::function<Trial(int64_t n)>;

// Best-of-3 ns/op. A short probe sizes n so one trial lasts about
// `trial_seconds`; the three trials then run at that size.
double BestNsPerOp(const TrialFn& fn, double trial_seconds) {
  int64_t n = 64;
  Trial t = fn(n);
  while (t.seconds < trial_seconds / 16) {
    n *= 8;
    t = fn(n);
  }
  const double scale = trial_seconds / std::max(t.seconds, 1e-9);
  n = std::max<int64_t>(1, static_cast<int64_t>(static_cast<double>(n) * scale));
  double best = 1e300;
  for (int i = 0; i < 3; ++i) {
    t = fn(n);
    best = std::min(best, t.seconds / static_cast<double>(std::max<int64_t>(1, t.ops)));
  }
  return best * 1e9;
}

// ---------------------------------------------------------------- sim

// Simulator-like delay mix: half immediate kicks, then serialization and
// propagation delays, and a tail of far-future RTO-like timers.
Time NextDelay(Rng& rng) {
  const uint64_t r = rng.Next();
  const uint64_t c = r % 100;
  if (c < 50) return 0;
  if (c < 70) return 120;
  if (c < 85) return 1200;
  if (c < 95) return 12000;
  return static_cast<Time>(1000000 + (r >> 8) % 1000000);
}

// Pop + fire + push with `pending` events outstanding; callbacks capture
// four words, as the simulator's own events do.
Trial EventChurn(int64_t n, int pending) {
  sim::EventQueue q;
  Rng rng(12345);
  uint64_t acc = 0;
  const auto make = [&acc](uint64_t id, uint64_t bytes, Time t) {
    return [&acc, id, bytes, t] { acc += id + bytes + static_cast<uint64_t>(t); };
  };
  for (int i = 0; i < pending; ++i) {
    q.Push(NextDelay(rng), make(static_cast<uint64_t>(i), 1500, 0));
  }
  sim::Callback cb;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    const Time now = q.PopLive(cb);
    cb();
    q.Push(now + NextDelay(rng), make(static_cast<uint64_t>(i), 1500, now));
  }
  const double seconds = SecondsSince(start);
  g_sink = g_sink + acc;
  return {n, seconds};
}

// The retransmit-timer pattern: ten timers armed, nine cancelled before they
// fire. One operation = one scheduled event.
Trial CancelChurn(int64_t n) {
  sim::EventQueue q;
  Rng rng(999);
  uint64_t fired = 0;
  Time now = 0;
  sim::Callback cb;
  int64_t scheduled = 0;
  const Clock::time_point start = Clock::now();
  while (scheduled < n) {
    for (int i = 0; i < 10; ++i) {
      sim::EventHandle h =
          q.Push(now + 1 + static_cast<Time>(rng.UniformInt(100000)), [&fired] { ++fired; });
      if (i != 9) h.Cancel();
    }
    scheduled += 10;
    now = q.PopLive(cb);
    cb();
  }
  const double seconds = SecondsSince(start);
  g_sink = g_sink + fired;
  return {scheduled, seconds};
}

// ---------------------------------------------------------------- buffer

// Fill/drain cycles over 64 PD queues of one shared buffer. One operation =
// one packet enqueued and later dequeued.
Trial BufferEnqDeq(int64_t n) {
  buffer::SharedBuffer buf(4 * 1000 * 1000, 64, kDefaultCellBytes);
  Packet pkt;
  pkt.size_bytes = 1000;
  int64_t packets = 0;
  uint64_t acc = 0;
  const Clock::time_point start = Clock::now();
  while (packets < n) {
    for (int q = 0; buf.Fits(pkt.size_bytes); q = (q + 1) & 63) {
      pkt.flow_id = static_cast<uint64_t>(packets);
      buf.Enqueue(q, pkt, static_cast<Time>(packets));
      ++packets;
    }
    for (int q = 0; q < 64; ++q) {
      while (!buf.queue(q).Empty()) acc += buf.DequeueHead(q).packet.flow_id;
    }
  }
  const double seconds = SecondsSince(start);
  g_sink = g_sink + acc;
  return {packets, seconds};
}

// ---------------------------------------------------------------- bm

// A TmView over plain arrays with an O(1) running occupancy, so the admit
// rungs time the scheme and not the view.
class LadderTmView final : public bm::TmView {
 public:
  LadderTmView(int64_t buffer_bytes, int queues, double alpha, uint64_t seed)
      : buffer_bytes_(buffer_bytes),
        qlens_(static_cast<size_t>(queues)),
        alphas_(static_cast<size_t>(queues), alpha),
        priorities_(static_cast<size_t>(queues), 0),
        drain_rates_(static_cast<size_t>(queues)) {
    // Queues hold up to an even share of half the buffer, so the free space
    // (and thus every DT-family threshold) sits mid-range.
    Rng rng(seed);
    const auto share = static_cast<uint64_t>(buffer_bytes / queues);
    for (int q = 0; q < queues; ++q) {
      qlens_[static_cast<size_t>(q)] = static_cast<int64_t>(rng.UniformInt(share));
      occupancy_ += qlens_[static_cast<size_t>(q)];
      drain_rates_[static_cast<size_t>(q)] = 0.125 + 0.875 * rng.UniformDouble();
    }
  }

  Time now() const override { return now_; }
  int64_t buffer_bytes() const override { return buffer_bytes_; }
  int64_t occupancy_bytes() const override { return occupancy_; }
  int num_queues() const override { return static_cast<int>(qlens_.size()); }
  int64_t qlen_bytes(int q) const override { return qlens_[static_cast<size_t>(q)]; }
  double alpha(int q) const override { return alphas_[static_cast<size_t>(q)]; }
  int priority(int q) const override { return priorities_[static_cast<size_t>(q)]; }
  double normalized_drain_rate(int q) const override {
    return drain_rates_[static_cast<size_t>(q)];
  }

  void Advance(Time dt) { now_ += dt; }

 private:
  Time now_ = 0;
  int64_t buffer_bytes_;
  int64_t occupancy_ = 0;
  std::vector<int64_t> qlens_;
  std::vector<double> alphas_;
  std::vector<int> priorities_;
  std::vector<double> drain_rates_;
};

struct SchemeSpec {
  const char* name;
  double alpha;  // the paper's per-scheme default (§6.2)
  std::unique_ptr<bm::BmScheme> (*make)();
};

// The nine schemes occamy_sim accepts. occamy and occamy_lqd share their
// admission (OccamyBm); they differ only in the expulsion victim policy,
// which the core.* rungs time.
const std::vector<SchemeSpec>& Schemes() {
  static const std::vector<SchemeSpec> kSchemes = {
      {"dt", 1.0, []() -> std::unique_ptr<bm::BmScheme> {
         return std::make_unique<bm::DynamicThreshold>();
       }},
      {"abm", 2.0, []() -> std::unique_ptr<bm::BmScheme> { return std::make_unique<bm::Abm>(); }},
      {"pushout", 1.0,
       []() -> std::unique_ptr<bm::BmScheme> { return std::make_unique<bm::Pushout>(); }},
      {"occamy", core::kRecommendedOccamyAlpha,
       []() -> std::unique_ptr<bm::BmScheme> { return std::make_unique<core::OccamyBm>(); }},
      {"occamy_lqd", core::kRecommendedOccamyAlpha,
       []() -> std::unique_ptr<bm::BmScheme> { return std::make_unique<core::OccamyBm>(); }},
      {"cs", 1.0,
       []() -> std::unique_ptr<bm::BmScheme> { return std::make_unique<bm::CompleteSharing>(); }},
      {"edt", 1.0,
       []() -> std::unique_ptr<bm::BmScheme> { return std::make_unique<bm::EnhancedDt>(); }},
      {"tdt", 1.0,
       []() -> std::unique_ptr<bm::BmScheme> { return std::make_unique<bm::TrafficAwareDt>(); }},
      {"qpo", 1.0,
       []() -> std::unique_ptr<bm::BmScheme> { return std::make_unique<bm::QuasiPushout>(); }},
  };
  return kSchemes;
}

constexpr int64_t kBmBufferBytes = 16 << 20;

// One admission decision per operation, called through the BmScheme
// interface as the TM calls it; queues are visited round-robin and the
// clock ticks so the time-based schemes (EDT, TDT) change state.
Trial BmAdmit(const SchemeSpec& spec, int queues, int64_t n) {
  LadderTmView view(kBmBufferBytes, queues, spec.alpha, 7);
  const std::unique_ptr<bm::BmScheme> scheme = spec.make();
  bm::BmScheme& s = *scheme;
  uint64_t admitted = 0;
  int q = 0;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    admitted += s.Admit(view, q, 1600) ? 1 : 0;
    q = (q + 1) & (queues - 1);
    view.Advance(Nanoseconds(100));
  }
  const double seconds = SecondsSince(start);
  g_sink = g_sink + admitted;
  return {n, seconds};
}

// Pushout's victim search (longest queue) for a full buffer.
Trial PushoutEvict(int queues, int64_t n) {
  LadderTmView view(kBmBufferBytes, queues, 1.0, 11);
  bm::Pushout pushout;
  bm::BmScheme& s = pushout;
  uint64_t acc = 0;
  int q = 0;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<uint64_t>(s.EvictVictim(view, q).value_or(-1));
    q = (q + 1) & (queues - 1);
  }
  const double seconds = SecondsSince(start);
  g_sink = g_sink + acc;
  return {n, seconds};
}

// ---------------------------------------------------------------- core

// One expulsion-engine step's selector work: a queue length changes, the
// over-allocation bitmap is refreshed incrementally against the new free
// space, and a victim is granted.
Trial SelectorStep(int queues, int64_t n) {
  core::HeadDropSelector selector(queues);
  Rng rng(3);
  std::vector<int64_t> qlens(static_cast<size_t>(queues));
  int64_t free_bytes = static_cast<int64_t>(queues) * 100000;
  for (auto& len : qlens) {
    len = static_cast<int64_t>(rng.UniformInt(100000));
    free_bytes -= len / 2;
  }
  // T = free / queues puts about half the queues over their threshold.
  const double alpha = 1.0 / queues;
  const auto qlen = [&qlens](int q) { return qlens[static_cast<size_t>(q)]; };
  const auto threshold = [&free_bytes, alpha](int) {
    return static_cast<int64_t>(alpha * static_cast<double>(free_bytes));
  };
  std::vector<int8_t> grown(static_cast<size_t>(queues), 0);
  uint64_t acc = 0;
  int q = 0;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    // Alternate enqueue/dequeue of one 1000-byte packet per queue visit.
    const int64_t delta = grown[static_cast<size_t>(q)] != 0 ? -1000 : 1000;
    grown[static_cast<size_t>(q)] ^= 1;
    qlens[static_cast<size_t>(q)] += delta;
    free_bytes -= delta;
    selector.MarkDirty(q);
    selector.RefreshIncremental(free_bytes, qlen, threshold);
    acc += static_cast<uint64_t>(selector.SelectVictim(qlen) + 1);
    q = (q + 7) & (queues - 1);
  }
  const double seconds = SecondsSince(start);
  g_sink = g_sink + acc;
  return {n, seconds};
}

// The comparator-tree maximum finder a longest-queue selector would need
// (the hardware Occamy avoids); gate-level model from src/hw.
Trial MaxFinder(int inputs, int64_t n) {
  hw::MaximumFinder finder(inputs, 20);
  Rng rng(1);
  std::vector<int64_t> values(static_cast<size_t>(inputs));
  for (auto& v : values) v = static_cast<int64_t>(rng.UniformInt(1 << 20));
  uint64_t acc = 0;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    values[static_cast<size_t>(i % inputs)] ^= 1;
    acc += static_cast<uint64_t>(finder.FindMax(values).second);
  }
  const double seconds = SecondsSince(start);
  g_sink = g_sink + acc;
  return {n, seconds};
}

Trial ArbiterGrant(int inputs, int64_t n) {
  core::Bitmap requests(inputs);
  Rng rng(1);
  for (int i = 0; i < inputs; ++i) requests.Set(i, rng.Bernoulli(0.3));
  core::RoundRobinArbiter arbiter(inputs);
  uint64_t acc = 0;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < n; ++i) acc += static_cast<uint64_t>(arbiter.Grant(requests) + 1);
  const double seconds = SecondsSince(start);
  g_sink = g_sink + acc;
  return {n, seconds};
}

tm::TmConfig PartitionConfig(int ports, int queues_per_port, tm::SchedulerKind scheduler) {
  tm::TmConfig cfg;
  cfg.buffer_bytes = 4 * 1000 * 1000;
  cfg.queues_per_port = queues_per_port;
  cfg.port_rates.assign(static_cast<size_t>(ports), Bandwidth::Gbps(10));
  cfg.scheduler = scheduler;
  return cfg;
}

// One expelled packet. Each cycle over-fills an Occamy partition (alpha 1):
// port 0's queue takes half the buffer, the other seven ports fill the rest,
// which drops every threshold below queue 0's length. Simulator::Run then
// lets the expulsion engine head-drop queue 0 until it fits again. Only the
// drain is timed.
Trial Expel(int64_t n) {
  int64_t expelled = 0;
  double seconds = 0;
  while (expelled < n) {
    sim::Simulator sim;
    tm::TmConfig cfg = PartitionConfig(8, 1, tm::SchedulerKind::kFifo);
    cfg.class_configs = {tm::TmQueueConfig{1.0, 0}};
    cfg.enable_expulsion = true;
    tm::TmPartition part(&sim, cfg, std::make_unique<core::OccamyBm>());
    Packet pkt;
    pkt.size_bytes = 1000;
    while (part.Enqueue(0, pkt).accepted) ++pkt.flow_id;
    for (bool any = true; any;) {
      any = false;
      for (int port = 1; port < 8; ++port) any = part.Enqueue(port, pkt).accepted || any;
    }
    const Clock::time_point start = Clock::now();
    sim.Run();
    seconds += SecondsSince(start);
    const int64_t cycle = part.stats().expelled_packets;
    OCCAMY_CHECK(cycle > 0) << "expel rung: nothing was expelled";
    expelled += cycle;
  }
  return {expelled, seconds};
}

// TmPartition enqueue + scheduler-picked dequeue on one port with 8 queues
// and a standing backlog of 64 packets. One operation = one packet in and
// one packet out.
Trial TmEnqDeq(tm::SchedulerKind scheduler, int64_t n) {
  sim::Simulator sim;
  tm::TmPartition part(&sim, PartitionConfig(1, 8, scheduler),
                       std::make_unique<bm::DynamicThreshold>());
  Packet pkt;
  pkt.size_bytes = 1000;
  for (int i = 0; i < 64; ++i) {
    pkt.traffic_class = static_cast<uint8_t>(i & 7);
    OCCAMY_CHECK(part.Enqueue(0, pkt).accepted);
  }
  uint64_t acc = 0;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    pkt.traffic_class = static_cast<uint8_t>(i & 7);
    acc += part.Enqueue(0, pkt).accepted ? 1 : 0;
    acc += part.DequeueForPort(0)->size_bytes;
  }
  const double seconds = SecondsSince(start);
  g_sink = g_sink + acc;
  return {n, seconds};
}

// ---------------------------------------------------------------- net

constexpr Time kStarPropagation = Microseconds(2);

// A 2-host star (host 0 sends, host 1 receives) on an inline sharded
// engine. `shards` = 2 puts each host and its egress partition on its own
// shard, so every host -> switch hop crosses the mailbox.
struct TwoHostStar {
  TwoHostStar(int shards, Bandwidth sender, Bandwidth receiver, int64_t ecn_bytes)
      : ssim(Options(shards)),
        cfg(Config(sender, receiver, ecn_bytes, shards)),
        net(&ssim, [this, shards](net::NodeId id) { return net::StarShardOf(cfg, shards, id); },
            [shards](net::NodeId, int lane) { return net::StarLaneShardOf(shards, lane); }) {
    topo = net::BuildStar(net, cfg);
  }

  static sim::ShardedSimulator::Options Options(int shards) {
    sim::ShardedSimulator::Options opts;
    opts.shards = shards;
    opts.lookahead = kStarPropagation;
    opts.use_threads = false;
    return opts;
  }

  static net::StarConfig Config(Bandwidth sender, Bandwidth receiver, int64_t ecn_bytes,
                                int shards) {
    net::StarConfig cfg;
    cfg.num_hosts = 2;
    cfg.host_rates = {sender, receiver};
    cfg.link_propagation = kStarPropagation;
    cfg.switch_config.ports_per_partition = shards > 1 ? 1 : 2;
    cfg.switch_config.tm.buffer_bytes = 4 * 1000 * 1000;
    cfg.switch_config.tm.ecn_threshold_bytes = ecn_bytes;
    cfg.switch_config.scheme_factory = [] { return std::make_unique<bm::DynamicThreshold>(); };
    return cfg;
  }

  net::Host& host(int i) { return topo.host(net, i); }

  sim::ShardedSimulator ssim;
  net::StarConfig cfg;
  net::Network net;
  net::StarTopology topo;
};

// Open-loop line-rate sender: one Host::Send per serialization time, from
// an event on the sending host's own shard.
struct Pacer {
  net::Host* host = nullptr;
  Packet pkt;
  Time gap = 0;
  int64_t left = 0;

  void Tick() {
    host->Send(pkt);
    ++pkt.seq;
    if (--left > 0) host->sim().After(gap, [this] { Tick(); });
  }
};

// One packet host 0 -> switch -> host 1 on the 1-shard engine, including
// its send event, both wire hops and the switch's admit/enqueue/dequeue.
Trial Forward(int64_t n) {
  TwoHostStar star(1, Bandwidth::Gbps(100), Bandwidth::Gbps(100), 0);
  Pacer pacer;
  pacer.host = &star.host(0);
  pacer.pkt.flow_id = 1;
  pacer.pkt.src = star.topo.hosts[0];
  pacer.pkt.dst = star.topo.hosts[1];
  pacer.pkt.size_bytes = 1500;
  pacer.gap = Bandwidth::Gbps(100).TxTime(1500);
  pacer.left = n;
  star.host(0).sim().At(0, [&pacer] { pacer.Tick(); });
  const Clock::time_point start = Clock::now();
  star.ssim.RunUntil(Seconds(3600));
  const double seconds = SecondsSince(start);
  OCCAMY_CHECK_EQ(star.host(1).rx_packets(), n);
  return {n, seconds};
}

// A node that only counts what it receives.
class SinkNode final : public net::Node {
 public:
  void ReceivePacket(int in_port, Packet pkt) override {
    (void)in_port;
    ++received;
    bytes += pkt.size_bytes;
  }
  int64_t received = 0;
  int64_t bytes = 0;
};

// One record staged by Network::DeliverAfter on shard 0 for a node on
// shard 1, merged in by the barrier drain and delivered. Records go out in
// batches of 1024 per window, as a busy shard stages them.
Trial Mailbox(int64_t n) {
  sim::ShardedSimulator::Options opts;
  opts.shards = 2;
  opts.lookahead = kStarPropagation;
  opts.use_threads = false;
  sim::ShardedSimulator ssim(opts);
  net::Network net(&ssim, [](net::NodeId id) { return static_cast<int>(id); });
  const net::NodeId src = net.AddNode(std::make_unique<SinkNode>());
  const net::NodeId dst = net.AddNode(std::make_unique<SinkNode>());
  auto& sink = static_cast<SinkNode&>(net.node(dst));
  Packet pkt;
  pkt.size_bytes = 1500;
  constexpr int64_t kBatch = 1024;
  int64_t staged = 0;
  const Clock::time_point start = Clock::now();
  while (staged < n) {
    for (int64_t i = 0; i < kBatch; ++i) {
      pkt.seq = static_cast<uint64_t>(staged + i);
      net.DeliverAfter(src, kStarPropagation, net::LinkEnd{dst, 0}, pkt);
    }
    staged += kBatch;
    ssim.RunUntil(ssim.shard(0).now() + 2 * kStarPropagation);
  }
  const double seconds = SecondsSince(start);
  OCCAMY_CHECK_EQ(sink.received, staged);
  OCCAMY_CHECK_EQ(net.mailbox_drained(), net.mailbox_staged());
  return {staged, seconds};
}

// One acked segment of a DCTCP bulk flow across the 1-shard star. The
// receiver's port runs at a quarter of the sender's rate, so the switch
// queue (not the sender NIC) is the bottleneck and ECN bounds the window.
Trial AckedSegment(int64_t n) {
  TwoHostStar star(1, Bandwidth::Gbps(100), Bandwidth::Gbps(25), 65 * 1500);
  transport::FlowManager manager(&star.net);
  for (const net::NodeId h : star.topo.hosts) manager.AttachHost(h);
  transport::FlowParams flow;
  flow.src = star.topo.hosts[0];
  flow.dst = star.topo.hosts[1];
  flow.size_bytes = n * manager.config().mss;
  manager.StartFlow(flow);
  const Clock::time_point start = Clock::now();
  star.ssim.RunUntil(Seconds(3600));
  const double seconds = SecondsSince(start);
  const transport::FlowManager::Counters c = manager.counters();
  OCCAMY_CHECK_EQ(c.flows_completed, 1);
  return {n, seconds};
}

// ---------------------------------------------------------------- main

struct Rung {
  std::string name;
  TrialFn fn;
};

std::vector<Rung> Ladder() {
  std::vector<Rung> rungs;
  const std::pair<const char*, int> pending[] = {{"1k", 1 << 10}, {"16k", 1 << 14},
                                                 {"128k", 1 << 17}};
  for (const auto& [label, count] : pending) {
    const int w = count;
    rungs.push_back({std::string("sim.churn_ns.") + label,
                     [w](int64_t n) { return EventChurn(n, w); }});
  }
  rungs.push_back({"sim.cancel_ns", CancelChurn});
  rungs.push_back({"buffer.enq_deq_ns", BufferEnqDeq});
  const int queue_counts[] = {8, 64, 512};
  for (const SchemeSpec& spec : Schemes()) {
    for (const int queues : queue_counts) {
      rungs.push_back({std::string("bm.admit_ns.") + spec.name + ".q" + std::to_string(queues),
                       [&spec, queues](int64_t n) { return BmAdmit(spec, queues, n); }});
    }
  }
  for (const int queues : queue_counts) {
    rungs.push_back({"bm.evict_ns.pushout.q" + std::to_string(queues),
                     [queues](int64_t n) { return PushoutEvict(queues, n); }});
  }
  for (const int queues : queue_counts) {
    rungs.push_back({"core.select_ns.q" + std::to_string(queues),
                     [queues](int64_t n) { return SelectorStep(queues, n); }});
  }
  rungs.push_back({"core.expel_ns", Expel});
  for (const int inputs : {64, 512, 4096}) {
    rungs.push_back({"core.arbiter_ns.n" + std::to_string(inputs),
                     [inputs](int64_t n) { return ArbiterGrant(inputs, n); }});
  }
  for (const int inputs : {64, 512}) {
    rungs.push_back({"hw.max_finder_ns.n" + std::to_string(inputs),
                     [inputs](int64_t n) { return MaxFinder(inputs, n); }});
  }
  const std::pair<const char*, tm::SchedulerKind> schedulers[] = {
      {"fifo", tm::SchedulerKind::kFifo},
      {"drr", tm::SchedulerKind::kDrr},
      {"sp", tm::SchedulerKind::kStrictPriority}};
  for (const auto& [label, kind] : schedulers) {
    const tm::SchedulerKind k = kind;
    rungs.push_back({std::string("tm.enq_deq_ns.") + label,
                     [k](int64_t n) { return TmEnqDeq(k, n); }});
  }
  rungs.push_back({"net.forward_ns", Forward});
  rungs.push_back({"net.mailbox_ns", Mailbox});
  rungs.push_back({"transport.ack_ns", AckedSegment});
  return rungs;
}

int Main(int argc, char** argv) {
  double trial_seconds = 0.1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string flag = "--trial-seconds=";
    char* end = nullptr;
    if (arg.rfind(flag, 0) == 0) {
      trial_seconds = std::strtod(arg.c_str() + flag.size(), &end);
    }
    if (end == nullptr || *end != '\0' || !(trial_seconds > 0 && trial_seconds <= 10)) {
      std::fprintf(stderr, "usage: layer_ladder [--trial-seconds=S]  (0 < S <= 10)\n");
      return 2;
    }
  }
  std::printf("{");
  const std::vector<Rung> rungs = Ladder();
  for (size_t i = 0; i < rungs.size(); ++i) {
    const double ns = BestNsPerOp(rungs[i].fn, trial_seconds);
    std::printf("%s\"%s\": %.6g", i == 0 ? "" : ", ", rungs[i].name.c_str(), ns);
    std::fflush(stdout);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace occamy::ladder

int main(int argc, char** argv) { return occamy::ladder::Main(argc, argv); }
