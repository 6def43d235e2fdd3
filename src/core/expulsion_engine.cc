#include "src/core/expulsion_engine.h"

namespace occamy::core {

void ExpulsionEngine::KickIdle(bool grew) {
  if (!control_frozen_ && control_lag_ == 0) {
    if (!grew && config_.incremental_refresh) return;
    RefreshBitmap();
    if (!selector_.AnyOverAllocated()) return;  // stay off the event queue
  }
  ScheduleStep(0);
}

// Incremental (DT-family schemes only): just the queues marked dirty by the
// kicks plus those whose threshold moved across their length are
// re-evaluated. Other schemes rescan every queue.
void ExpulsionEngine::RefreshBitmap() {
  const auto qlen = [this](int q) { return target_->qlen_bytes(q); };
  const auto threshold = [this](int q) { return target_->expulsion_threshold(q); };
  if (!config_.incremental_refresh) selector_.MarkAllDirty();
  selector_.RefreshIncremental(target_->threshold_key(), qlen, threshold);
}

void ExpulsionEngine::Step() {
  scheduled_ = false;
  in_step_ = true;

  // (1) Refresh the over-allocation bitmap.
  RefreshBitmap();
  if (!selector_.AnyOverAllocated()) {
    in_step_ = false;
    return;  // go idle; a kick will wake us
  }

  // (2) Pick the victim queue.
  const auto qlen = [this](int q) { return target_->qlen_bytes(q); };
  const int victim = selector_.SelectVictim(qlen);
  if (victim < 0) {
    in_step_ = false;
    return;
  }

  const int64_t cells = target_->head_cells(victim);
  if (cells <= 0) {
    in_step_ = false;
    return;  // raced with a dequeue; the next kick re-evaluates
  }

  // (3) Fixed-priority arbitration: only proceed on redundant bandwidth.
  const Time now = sim_->now();
  if (!memory_->TryConsume(cells, now)) {
    ++blocked_on_bandwidth_;
    const Time wait = memory_->TimeUntilAvailable(cells, now);
    in_step_ = false;
    ScheduleStep(wait);
    return;
  }

  // (4) Execute the head drop (PD dequeue + cell-pointer free, Figure 10).
  // HeadDropOnePacket may run a drop hook that feeds back into the TM; any
  // kick from there only marks dirty state (see idle()).
  const int64_t bytes_before = target_->qlen_bytes(victim);
  target_->HeadDropOnePacket(victim);
  selector_.MarkDirty(victim);
  const int64_t dropped_bytes = bytes_before - target_->qlen_bytes(victim);
  ++expelled_packets_;
  expelled_cells_ += cells;
  expelled_bytes_ += dropped_bytes;

  // (5) Keep going while work remains; the op itself occupies the pipeline
  // for a few cycles.
  in_step_ = false;
  ScheduleStep(OpLatency(cells));
}

}  // namespace occamy::core
