// Run telemetry every scenario runner reports the same way (burst lab, DPDK
// star, leaf-spine fabric): engine, switch, mailbox, fault and delivery
// counters. One reader per source fills it and one
// AddTelemetryFields emits it into a run's metrics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/exp/metrics.h"
#include "src/fault/injector.h"
#include "src/net/network.h"
#include "src/net/switch.h"
#include "src/obs/counters.h"
#include "src/sim/sharded_simulator.h"
#include "src/stats/completion_stats.h"

namespace occamy::exp {

struct RunTelemetry {
  int64_t sim_events = 0;          // simulator events processed (deterministic)
  int shards = 0;                  // the engine's shard count
  double parallel_efficiency = 0;  // wall-clock derived
  uint64_t windows_run = 0;        // barrier (drain+plan) rounds
  uint64_t windows_executed = 0;   // conservative windows that ran an event
  uint64_t max_window_batch = 0;   // widest batch planned
  obs::BufferObs obs;              // per-queue delay/drop aggregate (schema v6)
  uint64_t mailbox_staged = 0;     // cross-shard records staged
  uint64_t mailbox_drained = 0;    // cross-shard records drained at barriers
  fault::FaultCounters faults;     // injected-fault counters (schema v7)
  // Delivered bytes bucketed by the completing transfer's end time in
  // simulated milliseconds (exact integers; feeds the --degradation
  // time-to-recovery report, see src/fault/recovery.h). Empty on the burst
  // lab, which has no completion records.
  std::vector<int64_t> delivered_by_ms;
  // Summed (peak: maxed) over every partition of every switch.
  int64_t drops = 0;  // includes expulsions
  int64_t expelled = 0;
  int64_t peak_occupancy_bytes = 0;
};

// Switch and mailbox counters, read after the run. Every value is an
// integer sum or maximum; all but the mailbox counters are the same for any
// shard count.
inline void CollectSwitchTelemetry(net::Network& net, RunTelemetry& t) {
  for (size_t id = 0; id < net.num_nodes(); ++id) {
    auto* sw = dynamic_cast<net::SwitchNode*>(&net.node(static_cast<net::NodeId>(id)));
    if (sw == nullptr) continue;
    t.drops += sw->TotalDrops();
    for (int p = 0; p < sw->num_partitions(); ++p) {
      tm::TmPartition& part = sw->partition(p);
      t.expelled += part.stats().expelled_packets;
      t.peak_occupancy_bytes =
          std::max(t.peak_occupancy_bytes, part.shared_buffer().peak_occupancy_bytes());
      part.AccumulateObs(t.obs);
    }
  }
  t.mailbox_staged = net.mailbox_staged();
  t.mailbox_drained = net.mailbox_drained();
}

// Everything a runner reads from its engine, network and injector after the run.
inline void CollectRunTelemetry(const sim::ShardedSimulator& engine, net::Network& net,
                                const std::optional<fault::FaultInjector>& injector,
                                RunTelemetry& t) {
  t.sim_events = static_cast<int64_t>(engine.processed_events());
  t.shards = engine.num_shards();
  t.parallel_efficiency = engine.parallel_efficiency();
  t.windows_run = engine.windows_run();
  t.windows_executed = engine.windows_executed();
  t.max_window_batch = engine.max_window_batch();
  CollectSwitchTelemetry(net, t);
  if (injector) t.faults = injector->Totals();
}

// Buckets every completion record's bytes into t.delivered_by_ms and
// returns their sum (the run's delivered application bytes).
inline int64_t CollectDelivered(const stats::CompletionCollector& flows, RunTelemetry& t) {
  int64_t delivered = 0;
  for (const auto& rec : flows.records()) {
    delivered += rec.bytes;
    const auto bucket = static_cast<size_t>(rec.end / kMillisecond);
    if (bucket >= t.delivered_by_ms.size()) t.delivered_by_ms.resize(bucket + 1, 0);
    t.delivered_by_ms[bucket] += rec.bytes;
  }
  return delivered;
}

using PerfClock = std::chrono::steady_clock;

// Emits `t` into `m`: the obs counter registry (mailbox, fault and queue
// counters, name-sorted), then perf (sim_events, wall time since `start`),
// then the engine fields.
void AddTelemetryFields(Metrics& m, const RunTelemetry& t, PerfClock::time_point start);

// How a metric key varies between two runs of the same point.
enum class KeyVolatility {
  kDeterministic,  // a pure function of the simulated run
  kWallClock,      // differs run to run and machine to machine
  kEngineSetting,  // fixed for a --shards setting, differs across them
};

KeyVolatility TelemetryKeyVolatility(std::string_view key);

}  // namespace occamy::exp
