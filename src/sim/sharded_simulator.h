// Conservative-time partition-parallel discrete-event engine.
//
// A ShardedSimulator runs N shards — each an ordinary single-threaded
// sim::Simulator with its own EventQueue and Rng — in lockstep over fixed
// time windows of length `lookahead`. Within a window every shard executes
// its own events in parallel; at the window barrier, work staged for other
// shards (packet deliveries, see net::Network) is handed over and the next
// window is planned. The scheme is conservative (Chandy–Misra style): it is
// only correct if every cross-shard interaction carries a delay of at least
// `lookahead`, so that anything produced inside window [W, W+L) cannot take
// effect before W+L and is guaranteed to be in the destination shard's queue
// before that shard starts the next window.
//
// Determinism contract. Results are byte-identical for any shard count
// (including 1) because
//  * every event's place in its shard's queue is a pure function of
//    simulated history: the order word (src/sim/event_queue.h) ranks
//    same-time events by the window that scheduled them, and a packet
//    delivery (net::Network) by (window after the send, src_node, src_lane,
//    sequence) — an order that does not depend on how nodes are
//    partitioned or on thread timing;
//  * a cross-shard delivery reaches its queue at the barrier after the
//    window that sent it, before any event it could precede runs; and
//  * the window grid is fixed (aligned multiples of `lookahead`), so the
//    window a push belongs to depends only on simulated time, never on
//    wall-clock interleaving.
// So `--shards=1` is a byte-exact oracle for `--shards=N`. One shard stages
// nothing, so it runs each planned batch straight through, with no barrier
// inside it.
//
// Adaptive window batching. A full condvar drain + plan round per window
// is pure synchronization overhead, and short-lookahead scenarios (the
// star's 2us windows) pay for tens of thousands of them. The planner
// therefore plans a *batch* of up to kMaxWindowBatch consecutive windows
// per condvar round: inside a batch, several shards run window after window
// separated only by cheap spin-barrier rounds (one shard runs the batch
// straight through). Each inner boundary performs the SAME handover as an
// outer barrier — quiesce, drain every shard's mailboxes, then let the
// leader pick the next window — so where a batch ends never changes the
// sequence of (window, drain) steps; batching elides only the condvar parks
// and the per-window plan work (policy feedback, horizon checks). The
// leader also hops windows with no events anywhere, which merges the empty
// and sparse stretches the profiler showed dominate the star. The batch
// width adapts to the rounds that just drained: it doubles (up to
// kMaxWindowBatch) while rounds are silent — no cross-shard mail staged —
// or dense (execution dominates, so spin rounds are cheap relative to the
// work they separate), jumps straight to the cap on rounds that executed
// nothing, and halves on sparse rounds that staged mail, where each
// boundary is synchronization-dominated and the condvar round's parked wait
// is the better primitive.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace occamy::sim {

// Index of the shard executing on the current thread, or 0 outside any
// sharded run (so single-threaded code indexes per-shard state at slot 0).
int CurrentShard();

namespace internal {
// RAII: marks the current thread as executing `shard`. -1 restores "none".
class ShardScope {
 public:
  explicit ShardScope(int shard);
  ~ShardScope();
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  int saved_;
};
}  // namespace internal

class ShardedSimulator {
 public:
  struct Options {
    int shards = 1;                       // clamped to >= 1
    Time lookahead = Microseconds(2);     // conservative window length, > 0
    uint64_t seed = 1;                    // per-shard Rngs fork from this
    // Run shards on worker threads. Off = execute the identical windowed
    // algorithm round-robin on the calling thread (useful under sanitizers
    // and for debugging; results are byte-identical either way). One shard
    // always runs on the calling thread.
    bool use_threads = true;
  };

  // Hard cap on windows per batch.
  static constexpr int kMaxWindowBatch = 16;

  explicit ShardedSimulator(const Options& options);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  Time lookahead() const { return lookahead_; }

  // The shard-local engine. Components owned by shard `i` schedule their
  // events here; outside RunUntil the caller (single-threaded setup /
  // teardown) may schedule into any shard.
  Simulator& shard(int i);

  // Adds a hook run once per shard at every window barrier, on that shard's
  // worker thread, with all shards quiescent; hooks run in the order added.
  // net::Network adds its mailbox drain, transport::FlowManager the release
  // of connections whose flows completed in the window. Must be added
  // before RunUntil. (Type-erasure is fine here: once per window barrier,
  // not per event.)
  // occamy-lint: allow(hot-path-indirection) barrier hook, not per-event
  void AddBarrierHook(std::function<void(int shard)> hook) {
    OCCAMY_CHECK(!running()) << "AddBarrierHook during a run";
    barrier_hooks_.push_back(std::move(hook));
  }

  // Cumulative count of cross-shard records staged since construction
  // (monotonic; net::Network registers its mailbox `staged` counter sum).
  // Read by the plan leader with every shard quiescent; feeds the auto
  // policy's silence signal only — correctness never depends on it, since
  // every inner boundary drains unconditionally.
  // occamy-lint: allow(hot-path-indirection) barrier hook, not per-event
  void set_staged_probe(std::function<uint64_t()> probe) {
    staged_probe_ = std::move(probe);
  }

  // Runs every shard up to and including `until` (conservative windows with
  // barrier drains between them); once every queue is empty the clocks hop
  // straight to `until`. Returns the total number of events processed by
  // this call.
  uint64_t RunUntil(Time until);

  // True while RunUntil is executing (shards may be running on worker
  // threads). Guards against mid-run scheduling from outside the shards —
  // e.g. FlowManager::StartFlow refuses it (flows must be registered
  // before the run).
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Sum of events processed by all shards, ever.
  uint64_t processed_events() const;

  // Of the last RunUntil: aggregate shard busy time divided by (wall time x
  // shards). 1.0 = perfectly balanced parallel execution; a single-shard
  // run reports ~1.0 by construction.
  double parallel_efficiency() const { return parallel_efficiency_; }

  // Barrier (drain + plan) rounds of the last RunUntil — the quantity the
  // adaptive planner minimizes; each round costs a full drain and a
  // condvar barrier.
  uint64_t windows_run() const { return windows_run_; }

  // Conservative windows of the last RunUntil that ran an event (the
  // pre-batching meaning of windows_run()).
  uint64_t windows_executed() const { return windows_executed_; }

  // Of the last RunUntil: the largest batch (in windows) the planner
  // issued.
  uint64_t max_window_batch() const { return max_window_batch_; }

 private:
  struct Plan {
    bool done = false;
    Time bound = 0;      // shards run events with time <= bound this window
    Time batch_end = 0;  // bound of the batch's last planned window
    int windows = 0;     // planned batch width, for telemetry
  };
  struct BatchStep {
    bool done = false;  // batch over: back to the outer drain + plan round
    Time bound = 0;     // next inner window bound (when !done)
  };

  // Single-threaded plan step: drains are complete, queues are quiescent.
  // Applies the adaptive-policy feedback from the round that just drained
  // and plans the next batch.
  Plan PlanBatch(Time until);

  // Inner-boundary step, run by the batch leader with every shard
  // quiescent and this round's mailbox drains already complete: hops to
  // the next window inside the batch holding any event (drained arrivals
  // included), or ends the batch.
  BatchStep StepBatch(const Plan& plan);

  // Runs every barrier hook for `shard` (on its worker, all shards quiescent).
  void RunBarrierHooks(int shard);

  std::vector<std::unique_ptr<Simulator>> shards_;
  Time lookahead_;
  bool use_threads_;
  // occamy-lint: allow(hot-path-indirection) barrier hook, not per-event
  std::vector<std::function<void(int)>> barrier_hooks_;
  // occamy-lint: allow(hot-path-indirection) barrier hook, not per-event
  std::function<uint64_t()> staged_probe_;

  std::atomic<bool> running_{false};

  // Leader-only state (written under the plan barrier / inner spin
  // barrier, published to workers by the barrier release).
  int batch_limit_ = 1;        // auto policy's current bound, in windows
  uint64_t staged_seen_ = 0;   // staged-probe value at the last plan round
  uint64_t events_seen_ = 0;   // processed_events() at the last plan round
  uint64_t windows_seen_ = 0;  // windows_executed_ at the last plan round

  double parallel_efficiency_ = 1.0;
  uint64_t windows_run_ = 0;
  uint64_t windows_executed_ = 0;
  uint64_t max_window_batch_ = 0;
};

}  // namespace occamy::sim
