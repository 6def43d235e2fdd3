// Occamy's reactive component (paper §4.3): the packet-expulsion engine.
//
// When any queue is over-allocated (q > T(t)) and redundant memory bandwidth
// is available (token bucket has credit), the engine head-drops one packet
// from a victim queue chosen by the head-drop selector, then reschedules
// itself. Conflicts with the output scheduler are resolved in the scheduler's
// favour: dequeues force-consume tokens (possibly driving the balance
// negative), so expulsion pauses automatically whenever the egress side is
// using the full memory bandwidth — the fixed-priority arbiter of Figure 8.
//
// In the chip the comparator bank evaluates every queue all the time and the
// pipeline issues only while the over-allocation bitmap is non-empty. Here an
// idle engine stays off the event queue the same way: a kick that may have
// over-allocated a queue refreshes the bitmap in place and schedules a Step
// only when some queue is over-allocated.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>

#include "src/core/head_drop_selector.h"
#include "src/core/memory_bandwidth.h"
#include "src/sim/simulator.h"
#include "src/util/time.h"

namespace occamy::core {

// The traffic-manager surface the engine drives. Implemented by TmPartition.
class ExpulsionTarget {
 public:
  virtual ~ExpulsionTarget() = default;

  virtual int num_queues() const = 0;
  virtual int64_t qlen_bytes(int q) const = 0;

  // The over-allocation threshold T(t) for queue q (Occamy uses its DT
  // threshold; see §4.3 "Selecting a head-drop queue"). Must be >= 0, and a
  // non-decreasing function of threshold_key() and (besides the queue's own
  // length) of nothing else mutable — the contract that lets the selector
  // refresh its bitmap incrementally (see HeadDropSelector).
  virtual int64_t expulsion_threshold(int q) const = 0;

  // Scalar capturing everything mutable that thresholds depend on. For the
  // DT family (T = alpha_q * free) this is the free buffer bytes.
  virtual int64_t threshold_key() const = 0;

  // Cells occupied by the head packet of q, or 0 if q is empty.
  virtual int64_t head_cells(int q) const = 0;

  // Head-drops one packet from q (PD dequeue + cell free, no data read).
  virtual void HeadDropOnePacket(int q) = 0;
};

struct ExpulsionConfig {
  DropPolicy policy = DropPolicy::kRoundRobin;

  // Refresh the selector's over-allocation bitmap incrementally (dirty
  // queues + threshold_key delta) instead of rescanning every queue per
  // step. Only exact when the target's thresholds honour the threshold_key
  // contract (DT family); TmPartition enables it iff the scheme reports
  // ThresholdIsFreeBytesMonotone(). Off by default: full rescan per step.
  bool incremental_refresh = false;

  // Latency of one expulsion operation: the selector produces a victim every
  // other cycle at 1 GHz (paper §5.1), and dequeuing the PD + cell pointers
  // takes ceil(cells / batch) cycles with `cell_ptr_batch` parallel
  // cell-pointer sub-lists (paper §2.1 / §3.2 observation 3).
  Time cycle = Nanoseconds(1);
  int selector_cycles = 2;
  int cell_ptr_batch = 4;
};

class ExpulsionEngine {
 public:
  ExpulsionEngine(sim::Simulator* sim, ExpulsionTarget* target, MemoryBandwidthModel* memory,
                  ExpulsionConfig config = {})
      : sim_(sim),
        target_(target),
        memory_(memory),
        config_(config),
        selector_(target->num_queues(), config.policy) {}

  ExpulsionEngine(const ExpulsionEngine&) = delete;
  ExpulsionEngine& operator=(const ExpulsionEngine&) = delete;

  // Notifies the engine that TM state changed in a way it cannot attribute
  // to one queue: the next refresh rescans every queue. Checked like a
  // growth kick.
  void Kick() {
    selector_.MarkAllDirty();
    if (idle()) KickIdle(/*grew=*/true);
  }

  // Notifies the engine that queue q grew (enqueue). q, and any queue whose
  // threshold fell with the free buffer, may now be over-allocated: an idle
  // engine refreshes the bitmap at once and schedules a Step only if some
  // queue is over-allocated. The hot-path flavour of Kick().
  void KickGrowth(int q) {
    selector_.MarkDirty(q);
    if (idle()) KickIdle(/*grew=*/true);
  }

  // Notifies the engine that queue q shrank (dequeue, pushout eviction). An
  // idle engine found no queue over-allocated at its last refresh, and under
  // the threshold_key contract (incremental_refresh) no threshold falls when
  // free bytes rise, so a shrink cannot over-allocate any queue: the dirty
  // mark is folded into the next refresh. Without the contract it is checked
  // like a growth kick.
  void KickShrink(int q) {
    selector_.MarkDirty(q);
    if (idle()) KickIdle(/*grew=*/false);
  }

  int64_t expelled_packets() const { return expelled_packets_; }
  int64_t expelled_bytes() const { return expelled_bytes_; }
  int64_t expelled_cells() const { return expelled_cells_; }
  int64_t blocked_on_bandwidth() const { return blocked_on_bandwidth_; }

  // ---- Control-plane fault injection (fault::FaultInjector) ----
  // Freezes/thaws the engine's control plane: while frozen no Step is
  // scheduled (a pending one is cancelled) and the data path runs without
  // any expulsion — queues over-allocate freely. Thawing issues a full-
  // rescan Kick so the engine catches up on everything it missed. Must run
  // on the engine's simulator; does not nest.
  void SetControlFrozen(bool frozen) {
    if (control_frozen_ == frozen) return;
    control_frozen_ = frozen;
    if (frozen) {
      if (scheduled_) {
        pending_.Cancel();
        scheduled_ = false;
        ++cp_stalled_steps_;
      }
      return;
    }
    Kick();
  }

  // Adds `lag` to every Step-scheduling decision (a stale control plane);
  // 0 restores normal scheduling.
  void set_control_lag(Time lag) { control_lag_ = lag; }

  // Steps suppressed by a frozen control plane or deferred by control lag.
  int64_t cp_stalled_steps() const { return cp_stalled_steps_; }

  // Switch-restart support: cancels any pending step and marks every queue
  // dirty (the buffer was just flushed, so all cached selector state is
  // stale). Cumulative counters survive — they are run-level metrics.
  void Reset() {
    if (scheduled_) {
      pending_.Cancel();
      scheduled_ = false;
    }
    selector_.MarkAllDirty();
  }

 private:
  // While Step() executes (in_step_) or is pending, kicks only mark dirty
  // state: Step's epilogue owns the reschedule, so a stray re-entrant
  // Kick() (e.g. a drop hook feeding back into the TM) can neither
  // double-schedule Step nor shortcut the pipeline's OpLatency pacing.
  bool idle() const { return !scheduled_ && !in_step_; }

  // The idle half of a kick (kept out of line, off the TM's per-packet
  // code). A frozen control plane schedules nothing (the dirty marks
  // accumulate until the thawing Kick); a lagged one schedules a Step
  // `control_lag_` late for every kick, since a stale control plane must
  // not act on the state it sees at the kick. Otherwise the kick checks
  // over-allocation in place and schedules a Step only if there is work.
  void KickIdle(bool grew);

  void Step();

  // Step's first stage: refreshes the over-allocation bitmap (the
  // comparator bank, Figure 9).
  void RefreshBitmap();

  // Schedules Step `delay` (plus the control lag) from now, unless the
  // control plane is frozen. Only valid while no Step is pending.
  void ScheduleStep(Time delay) {
    if (control_frozen_) {
      ++cp_stalled_steps_;
      return;
    }
    scheduled_ = true;
    if (control_lag_ > 0) ++cp_stalled_steps_;
    pending_ = sim_->After(delay + control_lag_, [this] { Step(); });
  }

  Time OpLatency(int64_t cells) const {
    const int64_t ptr_cycles = (cells + config_.cell_ptr_batch - 1) / config_.cell_ptr_batch;
    const int64_t cycles = std::max<int64_t>(config_.selector_cycles, ptr_cycles);
    return cycles * config_.cycle;
  }

  sim::Simulator* sim_;
  ExpulsionTarget* target_;
  MemoryBandwidthModel* memory_;
  ExpulsionConfig config_;
  HeadDropSelector selector_;

  bool scheduled_ = false;
  bool in_step_ = false;
  sim::EventHandle pending_;

  // Control-plane fault state (see SetControlFrozen / set_control_lag).
  bool control_frozen_ = false;
  Time control_lag_ = 0;

  int64_t expelled_packets_ = 0;
  int64_t expelled_bytes_ = 0;
  int64_t expelled_cells_ = 0;
  int64_t blocked_on_bandwidth_ = 0;
  int64_t cp_stalled_steps_ = 0;
};

}  // namespace occamy::core
