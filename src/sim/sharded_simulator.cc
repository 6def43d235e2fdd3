#include "src/sim/sharded_simulator.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace occamy::sim {

namespace {

thread_local int tls_shard = -1;

using WallClock = std::chrono::steady_clock;

// Reusable two-phase barrier: all parties block until the last one arrives;
// the last arrival runs `leader_fn` before everyone is released. `leader_fn`
// executes under the barrier mutex, which is exactly what the plan step
// wants: every other worker is provably quiescent while it reads the shard
// queues.
class CyclicBarrier {
 public:
  explicit CyclicBarrier(int parties) : parties_(parties) {}

  template <typename F>
  void ArriveAndWait(F&& leader_fn) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t gen = generation_;
    if (++arrived_ == parties_) {
      leader_fn();
      arrived_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const int parties_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
};

// Sense-reversing spin barrier for the inner (batched-window) loop: far
// cheaper per round than the condvar CyclicBarrier when shards ~= cores,
// and only ever spun for the bounded span of one batch — the outer
// barriers still park on condvars, so idle phases do not burn CPU. The
// last arrival runs `leader_fn` with every other party spinning, i.e.
// quiescent; its writes are published by the sense flip (release) and
// observed by the spinners' acquire loads.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) : parties_(parties) {}

  template <typename F>
  void ArriveAndWait(F&& leader_fn) {
    const bool sense = sense_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      leader_fn();
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(!sense, std::memory_order_release);
    } else {
      int spins = 0;
      while (sense_.load(std::memory_order_acquire) == sense) {
        if (++spins >= kSpinsBeforeYield) {
          spins = 0;
          std::this_thread::yield();
        }
      }
    }
  }

 private:
  static constexpr int kSpinsBeforeYield = 1 << 10;
  const int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<bool> sense_{false};
};

// Auto-policy density threshold: a round averaging this many events per
// executed window is "dense" — execution dominates each boundary, so the
// cheap in-batch spin rounds are well amortized and the policy widens the
// batch even though mail is flowing. Below it, a round that staged mail is
// synchronization-bound chatter and the policy narrows back toward the
// condvar schedule.
constexpr uint64_t kDenseWindowEvents = 32;

}  // namespace

int CurrentShard() { return tls_shard < 0 ? 0 : tls_shard; }

namespace internal {

bool OnOwningShard(const Simulator& sim) {
  const int owner = sim.bound_shard();
  return owner < 0 || owner == CurrentShard();
}

int BoundShardOf(const Simulator& sim) { return sim.bound_shard(); }

}  // namespace internal

namespace internal {
ShardScope::ShardScope(int shard) : saved_(tls_shard) { tls_shard = shard; }
ShardScope::~ShardScope() { tls_shard = saved_; }
}  // namespace internal

ShardedSimulator::ShardedSimulator(const Options& options)
    : lookahead_(options.lookahead), use_threads_(options.use_threads) {
  OCCAMY_CHECK(options.lookahead > 0) << "lookahead must be positive";
  const int n = std::max(1, options.shards);
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Independent per-shard streams regardless of shard count: shard i's
    // seed depends only on (seed, i), never on n.
    shards_.push_back(std::make_unique<Simulator>(
        SplitMix64(options.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(i + 1)))));
    // The window grid is the event order's (see src/sim/event_queue.h).
    shards_.back()->set_window(lookahead_);
  }
}

ShardedSimulator::~ShardedSimulator() = default;

Simulator& ShardedSimulator::shard(int i) {
  OCCAMY_CHECK(i >= 0 && i < num_shards()) << "bad shard index " << i;
  return *shards_[static_cast<size_t>(i)];
}

uint64_t ShardedSimulator::processed_events() const {
  uint64_t total = 0;
  for (const auto& s : shards_) total += s->processed_events();
  return total;
}

void ShardedSimulator::RunBarrierHooks(int shard) {
  if (barrier_hooks_.empty()) return;
  OCCAMY_TRACE_SPAN(drain_span, "mailbox.drain");
  for (const auto& hook : barrier_hooks_) hook(shard);
}

ShardedSimulator::Plan ShardedSimulator::PlanBatch(Time until) {
  Plan plan;
  // Feedback from the round that just drained. The staged counter is
  // cumulative, so a delta against the last sample means some window since
  // the previous drain staged mail.
  bool saw_mail = false;
  if (staged_probe_) {
    const uint64_t staged_now = staged_probe_();
    saw_mail = staged_now != staged_seen_;
    staged_seen_ = staged_now;
  }
  const uint64_t round_events = processed_events() - events_seen_;
  const uint64_t round_windows = windows_executed_ - windows_seen_;
  events_seen_ += round_events;
  windows_seen_ = windows_executed_;
  if (windows_run_ > 0) {
    const bool dense =
        round_windows > 0 && round_events / round_windows >= kDenseWindowEvents;
    if (saw_mail && !dense) {
      // Sparse chatter: each boundary is synchronization plus a real drain
      // with little execution between them — prefer the parked condvar
      // rounds over spinning.
      batch_limit_ = std::max(1, batch_limit_ / 2);
    } else {
      // Silent or dense round: widen. A round that executed nothing at all
      // was pure empty-window hopping — jump straight to the cap.
      batch_limit_ =
          round_events == 0 ? kMaxWindowBatch : std::min(kMaxWindowBatch, batch_limit_ * 2);
    }
  }
  Time gm = Simulator::kNoEvent;
  for (auto& s : shards_) gm = std::min(gm, s->NextEventTime());
  if (gm == Simulator::kNoEvent || gm > until) {
    // Nothing left inside the horizon: advance every clock to `until` (the
    // RunUntil contract) and finish. Queues are quiescent here — the other
    // workers are parked in the barrier.
    for (auto& s : shards_) s->RunUntil(until);
    plan.done = true;
    return plan;
  }
  // Hop to the aligned window containing the globally earliest event. The
  // grid is fixed (multiples of lookahead), so which barrier a staged record
  // crosses depends only on simulated time — a determinism requirement.
  const Time window_start = gm - gm % lookahead_;
  plan.bound = std::min(window_start + lookahead_ - 1, until);
  // Batch extent: batch_limit_ windows from the hopped-to start, clamped
  // to the horizon. Every inner boundary drains, so any extent is sound.
  const Time extent = static_cast<Time>(batch_limit_) * lookahead_;
  plan.batch_end = until - window_start >= extent ? window_start + extent - 1 : until;
  plan.windows =
      static_cast<int>((plan.batch_end - window_start) / lookahead_) + 1;
  ++windows_run_;
  ++windows_executed_;
  max_window_batch_ =
      std::max(max_window_batch_, static_cast<uint64_t>(plan.windows));
  return plan;
}

ShardedSimulator::BatchStep ShardedSimulator::StepBatch(const Plan& plan) {
  BatchStep step;
  // In-batch counterpart of the planner's empty-window hop — the
  // density-driven merge: windows with no events anywhere are skipped
  // outright, sparse ones cost one spin-barrier round each. The drains for
  // this boundary have already run, so gm sees every handed-over arrival.
  Time gm = Simulator::kNoEvent;
  for (auto& s : shards_) gm = std::min(gm, s->NextEventTime());
  if (gm == Simulator::kNoEvent || gm > plan.batch_end) {
    // Nothing due inside the batch anymore; run every clock out to its
    // end. No events execute (their queues hold nothing <= batch_end), so
    // nothing new is staged.
    for (auto& s : shards_) s->RunUntil(plan.batch_end);
    step.done = true;
    return step;
  }
  const Time window_start = gm - gm % lookahead_;
  step.bound = std::min(window_start + lookahead_ - 1, plan.batch_end);
  ++windows_executed_;
  return step;
}

uint64_t ShardedSimulator::RunUntil(Time until) {
  const int n = num_shards();
  const uint64_t events_before = processed_events();
  running_.store(true, std::memory_order_relaxed);
  windows_run_ = 0;
  windows_executed_ = 0;
  max_window_batch_ = 0;
  batch_limit_ = 1;  // auto policy starts conservative and doubles up
  staged_seen_ = staged_probe_ ? staged_probe_() : 0;
  events_seen_ = events_before;
  windows_seen_ = 0;
  // Record each shard's ownership for the duration of the run so that
  // OCCAMY_ASSERT_SHARD (src/sim/shard_checks.h) catches mis-pinned work
  // deterministically. Bound before the workers start and unbound after
  // they join, i.e. only while the run owns all shard state anyway.
  for (int s = 0; s < n; ++s) shards_[static_cast<size_t>(s)]->BindShard(s);

  Plan plan;  // written only by the barrier leader, read by all after release
  std::vector<uint64_t> busy_ns(static_cast<size_t>(n), 0);
  const WallClock::time_point wall_start = WallClock::now();

  const uint64_t active_before = shards_[0]->active_windows();
  if (!use_threads_ || n == 1) {
    // Identical windowed algorithm, round-robin on the calling thread: the
    // same PlanBatch / StepBatch decision sequence at the same boundaries,
    // so results match the threaded path byte for byte. One shard stages no
    // mail, so it runs each batch straight to its end with no inner
    // boundary; the event order (src/sim/event_queue.h) is the same.
    for (;;) {
      for (int s = 0; s < n; ++s) {
        internal::ShardScope scope(s);
        RunBarrierHooks(s);
      }
      {
        OCCAMY_TRACE_SPAN(plan_span, "barrier.plan");
        plan = PlanBatch(until);
        if (!plan.done) {
          OCCAMY_TRACE_SPAN_ARG(plan_span, "batch_windows", plan.windows);
        }
      }
      if (plan.done) break;
      Time bound = n == 1 ? plan.batch_end : plan.bound;
      for (;;) {
        for (int s = 0; s < n; ++s) {
          internal::ShardScope scope(s);
          OCCAMY_TRACE_SPAN(window_span, "window.execute");
          const WallClock::time_point t0 = WallClock::now();
          shards_[static_cast<size_t>(s)]->RunUntil(bound);
          busy_ns[static_cast<size_t>(s)] += static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() - t0)
                  .count());
        }
        if (bound >= plan.batch_end) break;
        // Inner boundary: the same drain-then-step handover as the outer
        // round, minus the plan work, so where a batch ends never changes
        // the (window, drain) schedule.
        for (int s = 0; s < n; ++s) {
          internal::ShardScope scope(s);
          RunBarrierHooks(s);
        }
        const BatchStep step = StepBatch(plan);
        if (step.done) break;
        bound = step.bound;
      }
    }
  } else {
    CyclicBarrier plan_barrier(n);
    CyclicBarrier window_barrier(n);
    SpinBarrier inner_barrier(n);
    BatchStep step;  // written only by the inner-barrier leader
    const auto worker = [&](int s) {
      internal::ShardScope scope(s);
      Simulator& sim = *shards_[static_cast<size_t>(s)];
      for (;;) {
        // Phase 1: the barrier hooks — hand over everything this shard's
        // peers staged for it, release its finished connections.
        RunBarrierHooks(s);
        // Phase 2: plan the next batch (leader only, all queues
        // quiescent). The span covers the wait, so its duration is this
        // shard's plan-barrier overhead for the round.
        {
          OCCAMY_TRACE_SPAN(plan_span, "barrier.plan");
          plan_barrier.ArriveAndWait([&] {
            plan = PlanBatch(until);
            if (!plan.done) {
              OCCAMY_TRACE_SPAN_ARG(plan_span, "batch_windows", plan.windows);
            }
          });
        }
        if (plan.done) return;
        // Phase 3: run the batch. Each inner boundary costs two
        // spin-barrier rounds: one to quiesce every shard before the
        // mailbox drains (producers must not push while consumers drain),
        // one after them so the leader's step sees the handed-over
        // arrivals and nobody starts the next window before all drains
        // finish. That is the full outer handover minus the condvar parks
        // and the plan work, so where a batch ends never changes the
        // (window, drain) schedule. Every shard computes the same break
        // conditions from the leader-shared plan/step, so all of them
        // leave the inner loop together; a single-window batch never
        // touches the spin barrier.
        Time bound = plan.bound;
        for (;;) {
          {
            OCCAMY_TRACE_SPAN(window_span, "window.execute");
            const WallClock::time_point t0 = WallClock::now();
            sim.RunUntil(bound);
            busy_ns[static_cast<size_t>(s)] += static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() -
                                                                     t0)
                    .count());
          }
          if (bound >= plan.batch_end) break;
          inner_barrier.ArriveAndWait([] {});
          RunBarrierHooks(s);
          inner_barrier.ArriveAndWait([&] { step = StepBatch(plan); });
          if (step.done) break;
          bound = step.bound;
        }
        // Phase 4: batch barrier — every shard is done with its windows
        // before anyone drains.
        {
          OCCAMY_TRACE_SPAN(barrier_span, "barrier.window");
          window_barrier.ArriveAndWait([] {});
        }
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n - 1));
    for (int s = 1; s < n; ++s) threads.emplace_back(worker, s);
    worker(0);
    for (auto& t : threads) t.join();
  }

  // One shard has no inner boundaries to count executed windows at; its
  // simulator counts the windows that ran an event instead.
  if (n == 1) windows_executed_ = shards_[0]->active_windows() - active_before;
  for (auto& s : shards_) s->BindShard(-1);
  running_.store(false, std::memory_order_relaxed);
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(WallClock::now() - wall_start)
          .count());
  uint64_t total_busy = 0;
  for (const uint64_t b : busy_ns) total_busy += b;
  parallel_efficiency_ =
      wall_ns > 0 ? static_cast<double>(total_busy) / (wall_ns * n) : 1.0;
  return processed_events() - events_before;
}

}  // namespace occamy::sim
