// The P4-testbed scenario (§6.1, Figs. 11-12): fast senders, slow receivers,
// one shared buffer; a long-lived overload to receiver A and a measured
// burst to receiver B, both open-loop (Pktgen substitute).
//
// The lab runs on one shard of the partition-parallel engine
// (StarScenario); the open-loop senders inject live, and the optional
// queue-length traces sample the switch from events on that shard.
#pragma once

#include <functional>
#include <optional>

#include "src/exp/fault_setup.h"
#include "src/exp/scenarios.h"
#include "src/exp/telemetry.h"
#include "src/stats/timeseries.h"
#include "src/workload/open_loop.h"

namespace occamy::exp {

// The open-loop senders are deterministic, but the seed still reaches the
// simulator so scheme-internal randomization (if any) is reproducible.
struct BurstLabSpec : RunSettings {
  Scheme scheme = Scheme::kDt;
  double alpha = 1.0;
  int64_t buffer_bytes = 2 * 1000 * 1000;
  Bandwidth sender_rate = Bandwidth::Gbps(100);
  Bandwidth receiver_rate = Bandwidth::Gbps(10);
  int64_t burst_bytes = 600 * 1000;
  Time burst_start = Microseconds(400);
  Time horizon = Milliseconds(4);
  // Sampling interval for queue-length traces (0 = no traces).
  Time sample_every = 0;
};

struct BurstLabResult {
  int64_t burst_packets = 0;
  int64_t burst_drops = 0;
  int64_t long_lived_drops = 0;
  stats::TimeSeries q_long{"q1"};
  stats::TimeSeries q_burst{"q2"};
  stats::TimeSeries threshold{"T"};
  RunTelemetry telemetry;

  double BurstLossRate() const {
    return burst_packets == 0
               ? 0.0
               : static_cast<double>(burst_drops) / static_cast<double>(burst_packets);
  }
};

inline StarSpec MakeBurstLabStarSpec(const BurstLabSpec& spec) {
  StarSpec star;
  star.num_hosts = 4;
  star.host_rates = {spec.sender_rate, spec.sender_rate, spec.receiver_rate,
                     spec.receiver_rate};
  star.link_propagation = Microseconds(1);
  star.buffer_bytes = spec.buffer_bytes;
  star.ecn_threshold_bytes = 0;  // open-loop: no ECN
  star.scheme = spec.scheme;
  star.alphas = {spec.alpha};
  star.seed = spec.seed;
  return star;
}

inline constexpr uint64_t kBurstLabLongFlow = net::Network::kOpenLoopFlowIdBase + 1;
inline constexpr uint64_t kBurstLabBurstFlow = net::Network::kOpenLoopFlowIdBase + 2;

inline BurstLabResult RunBurstLab(const BurstLabSpec& spec) {
  StarScenario s(MakeBurstLabStarSpec(spec));
  std::optional<fault::FaultInjector> injector;
  ArmFaultsOrDie(injector, s.net, spec.faults, StarFaultTopology(s.topo));

  // Counts losses of the measured burst and the long-lived flow; read after
  // the run.
  BurstLabResult result;
  s.sw().set_drop_hook([&result](const Packet& pkt, tm::DropReason reason) {
    // Expulsions of the long-lived queue are deliberate reclamation; count
    // them separately from congestion losses.
    if (pkt.flow_id == kBurstLabBurstFlow && reason != tm::DropReason::kExpelled) {
      ++result.burst_drops;
    }
    if (pkt.flow_id == kBurstLabLongFlow) ++result.long_lived_drops;
  });

  workload::OpenLoopConfig lived;
  lived.src = s.topo.hosts[0];
  lived.dst = s.topo.hosts[2];
  lived.rate = spec.sender_rate;
  lived.flow_id = kBurstLabLongFlow;
  lived.stop = spec.horizon;
  workload::OpenLoopSender long_lived(&s.net, lived);
  long_lived.Start();
  workload::OpenLoopConfig burst;
  burst.src = s.topo.hosts[1];
  burst.dst = s.topo.hosts[3];
  burst.rate = spec.sender_rate;
  burst.flow_id = kBurstLabBurstFlow;
  burst.start = spec.burst_start;
  burst.total_bytes = spec.burst_bytes;
  workload::OpenLoopSender burst_sender(&s.net, burst);
  burst_sender.Start();

  // Queue-length traces of the long-lived (q1) and burst (q2) queues and
  // q1's threshold; they read switch state mid-run, on the switch's shard.
  sim::Simulator& sim = s.net.sim_of(s.topo.switch_id);
  std::function<void()> sample = [&s, &sim, &result]() {
    auto& part = s.sw().partition(0);
    const Time now = sim.now();
    result.q_long.Record(now, static_cast<double>(s.sw().QueueLengthBytes(2, 0)) / 1000.0);
    result.q_burst.Record(now, static_cast<double>(s.sw().QueueLengthBytes(3, 0)) / 1000.0);
    result.threshold.Record(
        now, static_cast<double>(part.ThresholdBytes(part.QueueIndex(2, 0))) / 1000.0);
  };
  for (Time t = 0; spec.sample_every > 0 && t <= spec.horizon; t += spec.sample_every) {
    sim.At(t, sample);
  }

  s.ssim.RunUntil(spec.horizon);
  result.burst_packets = burst_sender.packets_sent();
  CollectRunTelemetry(s.ssim, s.net, injector, result.telemetry);
  return result;
}

}  // namespace occamy::exp
