// Buffer-management scheme interface (paper §2.2).
//
// A scheme decides, per arriving packet, whether the packet may enter its
// queue (admission control). Preemptive schemes additionally name a victim
// queue to evict from when the buffer is full (Pushout), or drive an
// expulsion engine asynchronously (Occamy, see src/core).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "src/bm/tm_view.h"

namespace occamy::bm {

class BmScheme {
 public:
  virtual ~BmScheme() = default;

  virtual std::string_view name() const = 0;

  // Admission check for a packet occupying `bytes` of buffer (cell-rounded)
  // heading to queue q. Physical fit (free cells) is checked by the TM; this
  // is only the policy decision.
  virtual bool Admit(const TmView& tm, int q, int64_t bytes) = 0;

  // The scheme's current queue-length threshold T(t) for queue q, for
  // statistics and for the expulsion engine's over-allocation test.
  // Schemes without a meaningful threshold return buffer_bytes().
  virtual int64_t Threshold(const TmView& tm, int q) const = 0;

  // State-update hooks (default no-ops).
  virtual void OnEnqueue(const TmView& tm, int q, int64_t bytes) {
    (void)tm, (void)q, (void)bytes;
  }
  virtual void OnDequeue(const TmView& tm, int q, int64_t bytes) {
    (void)tm, (void)q, (void)bytes;
  }
  virtual void OnAdmissionDrop(const TmView& tm, int q, int64_t bytes) {
    (void)tm, (void)q, (void)bytes;
  }

  // Pushout hook: when a packet for `arriving_q` does not fit, returns the
  // queue to evict one packet from, or nullopt to drop the arrival instead.
  // Non-preemptive schemes keep the default (drop the arrival).
  virtual std::optional<int> EvictVictim(const TmView& tm, int arriving_q) {
    (void)tm, (void)arriving_q;
    return std::nullopt;
  }

  // True if this scheme admits on free space and reclaims by eviction.
  virtual bool IsPreemptive() const { return false; }

  // True if this scheme reads TmView::normalized_drain_rate (ABM). The TM
  // keeps its per-queue drain-rate estimates only for such a scheme.
  virtual bool ReadsDrainRate() const { return false; }

  // True if Threshold() depends on mutable TM state only through
  // tm.free_bytes() and is non-decreasing in it (the DT family). This is
  // the contract that lets the expulsion engine refresh its over-allocation
  // bitmap incrementally; schemes without it get a full rescan every
  // expulsion step (the pre-optimization behaviour).
  virtual bool ThresholdIsFreeBytesMonotone() const { return false; }

  // Switch-restart support (fault injection): returns the scheme's mutable
  // per-run state to power-on defaults. Called after the TM flushed every
  // buffered packet, so queue-length-derived state starts from empty.
  // Stateless schemes (plain DT) keep the default no-op.
  virtual void Reset() {}
};

}  // namespace occamy::bm
