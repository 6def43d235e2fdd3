// Exporters for the trace recorder: Chrome trace-event JSON (loadable in
// chrome://tracing and Perfetto) and an aggregated text profile report
// (per-shard utilization, barrier-overhead %, window event-density
// histogram — the feedback signal for adaptive window sizing).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace occamy::obs {

// Span names the engine instrumentation emits (see sharded_simulator.cc and
// simulator.h); the profile aggregator keys on these.
inline constexpr char kSpanMailboxDrain[] = "mailbox.drain";
inline constexpr char kSpanBarrierPlan[] = "barrier.plan";
inline constexpr char kSpanWindowExecute[] = "window.execute";
inline constexpr char kSpanBarrierWindow[] = "barrier.window";
inline constexpr char kSpanRunCore[] = "run.core";
// Instants each shard records at the end of a run, with its event queue's
// cumulative delivery counts (sim::EventQueue::Counts).
inline constexpr char kInstantQueueDeliveries[] = "queue.deliveries";
inline constexpr char kInstantQueueFallbacks[] = "queue.fallbacks";

// Writes the events as one Chrome trace-event JSON object:
// {"traceEvents": [...]} with pid 0, tid = shard, ts/dur in microseconds
// normalized to the earliest event, plus process/thread metadata records.
// Events must already be sorted by timestamp (TraceRecorder::SortedEvents).
void WriteChromeTrace(const std::vector<TraceEvent>& events, int shards,
                      std::ostream& out);

struct ProfileShard {
  uint64_t busy_ns = 0;     // window.execute time
  uint64_t barrier_ns = 0;  // barrier.plan + barrier.window wait time
  uint64_t drain_ns = 0;    // mailbox.drain time
  uint64_t events = 0;      // events executed (sum of run.core args)
  uint64_t windows = 0;     // window.execute spans (one per batch at one shard)
  // Deliveries the shard's event queue placed in its FIFO, and those that
  // arrived earlier than the FIFO's tail and fell back to its near heap.
  uint64_t fifo_deliveries = 0;
  uint64_t delivery_fallbacks = 0;
};

struct ProfileReport {
  uint64_t wall_ns = 0;  // span of the recorded timeline
  std::vector<ProfileShard> shards;
  // Total barrier time / total accounted worker time (busy+barrier+drain).
  double barrier_overhead_frac = 0.0;
  // density[k] = number of run.core batches that executed [2^(k-1), 2^k)
  // events (density[0] counts empty batches).
  std::vector<uint64_t> density;
  uint64_t trace_dropped = 0;  // events lost to ring wrap-around
  // Window batching (sharded engine): the leader annotates each
  // barrier.plan span with the number of windows the batch covers, so the
  // profile shows how much the adaptive policy collapsed barrier traffic.
  uint64_t plan_rounds = 0;      // barrier.plan spans with a batch_windows arg
  uint64_t planned_windows = 0;  // total windows those plans covered
  uint64_t max_batch = 0;        // widest single batch planned
  // Some shard recorded its event queue's delivery counts.
  bool has_queue_counts = false;
};

// Aggregates recorder output into the per-shard report. `shards` sizes the
// report even when some shards recorded nothing.
ProfileReport BuildProfileReport(const std::vector<TraceEvent>& events, int shards,
                                 uint64_t trace_dropped);

// Human-readable rendering of the report (the `occamy_sim profile` output).
std::string FormatProfileReport(const ProfileReport& report);

}  // namespace occamy::obs
