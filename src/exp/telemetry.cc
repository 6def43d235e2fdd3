#include "src/exp/telemetry.h"

#include <initializer_list>

namespace occamy::exp {

// The keys AddTelemetryFields emits whose values are not a pure function of
// the simulated run. The CSV summary (src/exp/sinks.cc) drops the wall-clock
// ones so it stays byte-reproducible; the golden and differential
// fingerprints (tests/differential.h) drop both kinds, which is what lets
// every --shards >= 1 and --window-batch setting map onto the same golden.
KeyVolatility TelemetryKeyVolatility(std::string_view key) {
  for (const std::string_view k : {"wall_ms", "events_per_sec", "parallel_efficiency"}) {
    if (key == k) return KeyVolatility::kWallClock;
  }
  for (const std::string_view k :
       {"shards", "window_batch", "windows_run", "windows_executed", "max_window_batch"}) {
    if (key == k) return KeyVolatility::kEngineSetting;
  }
  return KeyVolatility::kDeterministic;
}

void AddTelemetryFields(Metrics& m, const RunTelemetry& t, int window_batch,
                        PerfClock::time_point start) {
  // Schema v6 counter registry: per-queue queueing-delay percentiles (from
  // the PdQueue enqueue timestamps, simulated time, reported in ns),
  // worst-single-queue drop/delay counters, and the sharded engine's
  // cross-shard mailbox traffic. Every value is an exact integer produced by
  // commutative folds (obs::BufferObs / obs::CounterRegistry), so it is
  // byte-identical for any shard count >= 1.
  obs::CounterRegistry reg;
  reg.Add("mailbox_staged_events", static_cast<int64_t>(t.mailbox_staged));
  reg.Add("mailbox_drained_events", static_cast<int64_t>(t.mailbox_drained));
  // Schema v7 fault counters: exact integers from the injector's per-shard
  // slots — always present (0 when the run is healthy) so the fingerprint
  // shape does not depend on the plan.
  reg.Add("faults_injected", t.faults.faults_injected);
  reg.Add("packets_lost_injected", t.faults.packets_lost);
  reg.Add("packets_corrupted", t.faults.packets_corrupted);
  reg.Add("blackhole_drops", t.faults.blackhole_drops);
  reg.Add("link_down_drops", t.faults.link_down_drops);
  // Schema v8 self-healing counters, same contract (always present).
  reg.Add("reroutes", t.faults.reroutes);
  reg.Add("flushed_bytes_restart", t.faults.flushed_bytes_restart);
  reg.Add("burst_loss_packets", t.faults.burst_loss_packets);
  reg.Add("cp_stalled_steps", t.faults.cp_stalled_steps);
  reg.Add("queue_delay_samples", static_cast<int64_t>(t.obs.all_delays.count()));
  reg.Add("queues_with_drops", static_cast<int64_t>(t.obs.queues_with_drops));
  reg.SetMax("queue_drops_max", static_cast<int64_t>(t.obs.queue_drops_max));
  reg.SetMax("queue_delay_p50_ns", t.obs.all_delays.Quantile(0.5) / kNanosecond);
  reg.SetMax("queue_delay_p99_ns", t.obs.all_delays.Quantile(0.99) / kNanosecond);
  reg.SetMax("queue_delay_max_ns", t.obs.all_delays.max() / kNanosecond);
  reg.SetMax("worst_queue_delay_p99_ns", t.obs.worst_queue_p99_ps / kNanosecond);
  // The registry keeps entries name-sorted, so emission order (and thus the
  // JSON text) is deterministic no matter how the fields above are added.
  for (const auto& e : reg.entries()) m.Set(e.name, e.value);

  // Schema v3 perf: the deterministic event count plus wall-clock-derived
  // throughput.
  const double wall_ms =
      std::chrono::duration<double, std::milli>(PerfClock::now() - start).count();
  m.Set("sim_events", t.sim_events);
  m.Set("wall_ms", wall_ms);
  m.Set("events_per_sec",
        wall_ms > 0 ? static_cast<double>(t.sim_events) / wall_ms * 1e3 : 0.0);

  // Schema v4/v5: which engine ran the point (0 = single-threaded) and, for
  // sharded runs, worker utilization plus the adaptive window planner's
  // telemetry.
  m.Set("shards", int64_t{t.shards});
  if (t.shards >= 1) {
    m.Set("parallel_efficiency", t.parallel_efficiency);
    m.Set("window_batch", int64_t{window_batch});
    m.Set("windows_run", static_cast<int64_t>(t.windows_run));
    m.Set("windows_executed", static_cast<int64_t>(t.windows_executed));
    m.Set("max_window_batch", static_cast<int64_t>(t.max_window_batch));
  }
}

}  // namespace occamy::exp
