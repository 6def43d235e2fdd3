// The discrete-event simulator driving every experiment in this repo.
//
// This replaces the paper's ns-3 / hardware testbeds: components schedule
// callbacks at absolute or relative simulated times and the simulator runs
// them in deterministic order. Single-threaded by design: every scenario
// runs on a ShardedSimulator (src/sim/sharded_simulator.h), which owns one
// Simulator per shard, puts it on its window grid (set_window), drives it
// through RunUntil and never touches it from two threads at once. A bare
// Simulator, with no grid, runs same-time events FIFO; unit tests and the
// benchmark's ladder drive components on one directly.
#pragma once

#include <cstdint>
#include <limits>
#include <utility>

#include "src/obs/trace.h"
#include "src/sim/event_queue.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace occamy::sim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }
  Rng& rng() { return rng_; }

  // Schedules `f` (a callable, or an rvalue Callback) at absolute time `t`
  // (must not be in the past). The closure is built in its event slot.
  template <typename F>
  EventHandle At(Time t, F&& f) {
    OCCAMY_CHECK_GE(t, now_) << "scheduling into the past";
    return queue_.PushLocal(t, WindowsAhead(t), std::forward<F>(f));
  }

  // Schedules `f` after `delay` (>= 0) from now.
  template <typename F>
  EventHandle After(Time delay, F&& f) {
    OCCAMY_CHECK_GE(delay, 0);
    const Time t = now_ + delay;
    return queue_.PushLocal(t, WindowsAhead(t), std::forward<F>(f));
  }

  // Moves the pending event behind `handle`, scheduled by At() or After(),
  // to time `t`, keyed exactly as At(t, ...) would key a new event now,
  // without cancelling it: a timer re-armed this way leaves no dead heap
  // entry behind. Returns false, changing nothing, if the handle is not
  // pending on this simulator, is a delivery's (AtOrdered), or `t` is
  // before the event's time.
  bool Postpone(const EventHandle& handle, Time t) {
    return queue_.PostponeLocal(handle, t, WindowsAhead(t));
  }

  // Puts this simulator on a grid of windows of length `window` (> 0), the
  // grid its event order is built on (see src/sim/event_queue.h). Call it
  // before scheduling anything. Without a grid, same-time events run FIFO.
  void set_window(Time window) {
    OCCAMY_CHECK(window > 0) << "window must be positive";
    OCCAMY_CHECK(queue_.Empty()) << "set_window after scheduling";
    window_ = window;
    EnterWindowOf(now_);
  }

  // Index of the window holding now(), on a simulator with a grid.
  int64_t window_index() const { return window_index_; }

  // The order word of a delivery sent now that arrives at `t`: it enters
  // the window after the current one, so `t` must lie in one of the
  // EventQueue::kMaxAhead windows from there on. `tiebreak` orders the
  // deliveries of one window that arrive at one time.
  uint64_t DeliveryOrder(Time t, uint64_t tiebreak) const {
    const Time past_end = t - window_end_;
    OCCAMY_CHECK(past_end >= 0 && past_end < EventQueue::kMaxAhead * window_)
        << "delivery at " << t << " outside the " << EventQueue::kMaxAhead
        << " windows after window " << window_index_;
    const int ahead = past_end < window_ ? 0 : static_cast<int>(past_end / window_);
    return EventQueue::DeliveryOrder(ahead, tiebreak);
  }

  // Schedules a delivery whose order word came from the sender's
  // DeliveryOrder (possibly on another simulator of the same grid). The
  // sender's lookahead check keeps `t` in this simulator's future.
  template <typename F>
  EventHandle AtOrdered(Time t, uint64_t order, F&& f) {
    OCCAMY_DCHECK_GE(t, now_);
    return queue_.PushOrdered(t, order, std::forward<F>(f));
  }

  // Runs until the queue is empty or `until` is reached. Events with time
  // <= until are processed; `now()` ends at `until`. Returns the number of
  // events processed by the call.
  uint64_t RunUntil(Time until) {
    const uint64_t n = RunCore(until);
    if (now_ < until) SetNow(until);
    return n;
  }

  // Runs until no events remain; `now()` ends at the last event's time.
  uint64_t Run() { return RunCore(std::numeric_limits<Time>::max()); }

  uint64_t processed_events() const { return processed_; }

  // How the event queue placed this simulator's pushes (EventQueue::Counts):
  // on one shard of a topology whose links share one delay, no delivery
  // falls back to the near heap.
  const EventQueue::Counts& queue_counts() const { return queue_.counts(); }

  // Windows of the grid in which an event ran, counted at each window's
  // first event (1 in all on a simulator without a grid).
  uint64_t active_windows() const { return active_windows_; }

  bool HasPendingEvents() const { return queue_.live_size() > 0; }

  // Time of the earliest pending event, or kNoEvent when none are pending.
  // Used by the sharded engine to plan the next conservative window.
  static constexpr Time kNoEvent = std::numeric_limits<Time>::max();
  Time NextEventTime() { return queue_.Empty() ? kNoEvent : queue_.NextTime(); }

  // Shard-affinity record (see src/sim/shard_checks.h): the shard index
  // this simulator is bound to while a sharded RunUntil executes, -1
  // otherwise. ShardedSimulator binds/unbinds it; OCCAMY_ASSERT_SHARD call
  // sites read it through sim::internal::OnOwningShard.
  int bound_shard() const { return bound_shard_; }
  void BindShard(int shard) { bound_shard_ = shard; }

 private:
  uint64_t RunCore(Time until) {
    OCCAMY_TRACE_SPAN(core_span, "run.core");
    uint64_t n = 0;
    for (;;) {
      Callback cb;
      Time t = 0;
      if (!queue_.PopLiveUntil(until, t, cb)) break;
      OCCAMY_DCHECK_GE(t, now_);  // At() rejects past times; debug-only here
      SetNow(t);
      if (window_index_ != last_active_window_) {
        last_active_window_ = window_index_;
        ++active_windows_;
      }
      cb();
      ++n;
      ++processed_;
    }
    OCCAMY_TRACE_SPAN_ARG(core_span, "events", n);
    return n;
  }

  void SetNow(Time t) {
    now_ = t;
    if (t >= window_end_) EnterWindowOf(t);
  }

  void EnterWindowOf(Time t) {
    window_index_ = t / window_;
    window_end_ = (window_index_ + 1) * window_;
  }

  // Windows between now's window and `t`'s, saturated at kMaxAhead. Without
  // a grid window_end_ never passes, so every event is 0 windows ahead.
  // The next window and the saturated far future, the common cases after
  // now's own window, take no division.
  int WindowsAhead(Time t) const {
    if (t < window_end_) return 0;
    const Time past_end = t - window_end_;
    if (past_end < window_) return 1;
    if (past_end >= (EventQueue::kMaxAhead - 1) * window_) return EventQueue::kMaxAhead;
    return 1 + static_cast<int>(past_end / window_);
  }

  EventQueue queue_;
  Time now_ = 0;
  // The window grid: length 0 = none; else now() lies in
  // [window_end_ - window_, window_end_), the window numbered window_index_.
  Time window_ = 0;
  int64_t window_index_ = 0;
  Time window_end_ = std::numeric_limits<Time>::max();
  int64_t last_active_window_ = -1;
  uint64_t active_windows_ = 0;
  uint64_t processed_ = 0;
  int bound_shard_ = -1;
  Rng rng_;
};

}  // namespace occamy::sim
