// Event queue for the discrete-event engine.
//
// A 4-ary min-heap ordered by (time, sequence). The sequence number makes
// ordering of same-time events deterministic (FIFO in scheduling order).
//
// Three decisions drive the hot path:
//  - Heap entries are 16 bytes: the time plus a packed (seq << 24 | slot)
//    word. The sort key (time, seq) is embedded, so sifting is pure
//    sequential-array work — comparisons never dereference into the arena —
//    and since seq occupies the high bits, comparing the packed word
//    compares seq. Times are never negative, so (time, seq_slot) read as
//    one unsigned 128-bit number orders entries exactly as (time, seq).
//    This caps the arena at 2^24 concurrent events and one queue at 2^40
//    total events; both are checked.
//  - Pops remove the root bottom-up (Floyd): the hole walks to a leaf
//    along the smallest child, picked from four with conditional selects,
//    and the heap's last entry then sifts up from that leaf. That entry
//    usually belongs near the bottom, so the walk down needs neither a
//    comparison against it nor a data-dependent branch per level, and the
//    sift up is short.
//  - Event state (callback + liveness) lives in a contiguous freelist-
//    recycled arena: after warm-up, scheduling performs no allocation (the
//    arena and heap vectors are reused, and sim::Callback keeps every
//    per-packet closure in src/ inline). EventHandle is a {slot,
//    generation} pair instead of a weak_ptr: cancelling a stale handle
//    whose slot has been recycled is a generation mismatch, hence a no-op.
//
// Cancelled events are skipped lazily when they surface at the heap root,
// and compacted eagerly once they outnumber live events (so a workload that
// cancels many far-future timers — e.g. retransmit timers — cannot grow the
// heap unboundedly).
//
// Handles are only valid while the owning EventQueue is alive; they are
// plain {queue, slot, generation} triples with no ownership.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/callback.h"
#include "src/util/check.h"
#include "src/util/time.h"

// OCCAMY_ASAN builds poison the callback storage of freed arena slots, so
// any code that reaches into a recycled event's state (instead of going
// through the generation-checked EventHandle API) reports as a
// use-after-poison instead of silently reading the next tenant's callback.
// Only the callback region is poisoned: generation/cancelled stay readable,
// because stale-handle Cancel()/IsPending() legitimately read them to
// discover the slot was recycled.
#ifdef OCCAMY_ASAN
#include <sanitizer/asan_interface.h>
#define OCCAMY_POISON_SLOT(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define OCCAMY_UNPOISON_SLOT(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define OCCAMY_POISON_SLOT(addr, size) static_cast<void>(0)
#define OCCAMY_UNPOISON_SLOT(addr, size) static_cast<void>(0)
#endif

namespace occamy::sim {

class EventQueue;

// A handle to a scheduled event; default-constructed handles are inert.
// Cancelling an already-fired or already-cancelled event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Returns true if it was live.
  inline bool Cancel();

  inline bool IsPending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t slot, uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  uint32_t slot_ = 0;
  uint32_t generation_ = 0;
};

class EventQueue {
 public:
#ifdef OCCAMY_ASAN
  ~EventQueue() {
    // Unpoison recycled slots so the arena vector's destructor may run
    // the (trivial, but instrumented) Callback destructors.
    for (const uint32_t slot : free_) {
      OCCAMY_UNPOISON_SLOT(&slots_[slot].callback, sizeof(Callback));
    }
  }
#endif

  EventHandle Push(Time time, Callback cb) {
    // The pop path invokes unconditionally (the old queue silently skipped
    // null callbacks); reject the programming error at schedule time.
    OCCAMY_CHECK(static_cast<bool>(cb)) << "scheduling a null callback";
    // The unsigned heap key (KeyOf) orders only non-negative times.
    OCCAMY_DCHECK_GE(time, 0);
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      OCCAMY_UNPOISON_SLOT(&slots_[slot].callback, sizeof(Callback));
    } else {
      slot = static_cast<uint32_t>(slots_.size());
      OCCAMY_CHECK(slot < (1u << kSlotBits)) << "too many concurrent events";
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.cancelled = false;
    s.callback = std::move(cb);
    OCCAMY_CHECK(next_seq_ >> (64 - kSlotBits) == 0) << "event sequence overflow";
    heap_.push_back(Entry{time, (next_seq_++ << kSlotBits) | slot});
    SiftUp(heap_.size() - 1);
    ++live_;
    return EventHandle(this, slot, s.generation);
  }

  bool Empty() const { return live_ == 0; }

  // Events that will still fire (excludes cancelled-but-not-yet-removed
  // entries). Non-mutating, unlike NextTime().
  size_t live_size() const { return live_; }

  // Raw heap occupancy including cancelled entries awaiting removal; the
  // lazy compaction keeps this below 2x live_size() (plus a small floor).
  size_t SizeForTest() const { return heap_.size(); }

  // Time of the earliest live event. Undefined if Empty().
  Time NextTime() {
    PruneDeadHead();
    return heap_.front().time;
  }

  // Pops the earliest live event, moving its callback into `cb` and
  // returning its time. The slot is recycled before the callback runs, so
  // the callback may freely schedule new events. Undefined if Empty().
  Time PopLive(Callback& cb) {
    PruneDeadHead();
    const Entry head = heap_.front();
    RemoveRoot();
    const uint32_t slot = SlotOf(head);
    cb = std::move(slots_[slot].callback);
    FreeSlot(slot);
    --live_;
    return head.time;
  }

 private:
  friend class EventHandle;

  // Arena slot index width inside Entry::seq_slot; the high 40 bits hold
  // the scheduling sequence number.
  static constexpr int kSlotBits = 24;

  // Heap entry: the (time, seq) sort key is embedded so comparisons stay in
  // this contiguous array; the slot part points at callback/liveness state.
  struct Entry {
    Time time;
    uint64_t seq_slot;  // (seq << kSlotBits) | slot
  };

  static uint32_t SlotOf(const Entry& e) {
    return static_cast<uint32_t>(e.seq_slot & ((1u << kSlotBits) - 1));
  }

  struct Slot {
    uint32_t generation = 0;
    bool cancelled = false;
    Callback callback;
  };

  // Compaction kicks in only past this heap size: tiny queues never pay the
  // rebuild, and the bound "dead <= max(live, floor)" still holds.
  static constexpr size_t kCompactMinHeap = 64;

  bool CancelSlot(uint32_t slot, uint32_t generation) {
    if (slot >= slots_.size()) return false;
    Slot& s = slots_[slot];
    if (s.generation != generation || s.cancelled) return false;
    s.cancelled = true;
    s.callback = nullptr;  // release captured state eagerly
    --live_;
    if (heap_.size() >= kCompactMinHeap && (heap_.size() - live_) * 2 > heap_.size()) {
      Compact();
    }
    return true;
  }

  bool IsPendingSlot(uint32_t slot, uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           !slots_[slot].cancelled;
  }

  // The sort key as one unsigned 128-bit number: time in the high half,
  // seq_slot in the low. seq sits in the high bits of seq_slot, so this
  // orders by (time, seq) (slot bits only separate identical seqs, which
  // cannot happen), and it is exact because times are never negative.
  __extension__ using Key = unsigned __int128;
  static Key KeyOf(const Entry& e) {
    return (static_cast<Key>(static_cast<uint64_t>(e.time)) << 64) | e.seq_slot;
  }

  static bool Before(const Entry& a, const Entry& b) { return KeyOf(a) < KeyOf(b); }

  void SiftUp(size_t i) {
    const Entry v = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!Before(v, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = v;
  }

  // Top-down sift, for Compact's O(n) heap rebuild.
  void SiftDown(size_t i) {
    const Entry v = heap_[i];
    const size_t n = heap_.size();
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t last = std::min(first + 4, n);
      for (size_t c = first + 1; c < last; ++c) {
        if (Before(heap_[c], heap_[best])) best = c;
      }
      if (!Before(heap_[best], v)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = v;
  }

  // Index of the smallest of the four children starting at `first`, chosen
  // with conditional selects rather than branches. The last select is a
  // mask: written as `?:`, GCC turns it back into a branch that the
  // random order of the keys mispredicts half the time.
  size_t MinOfFour(size_t first) const {
    const Entry* c = &heap_[first];
    const Key k0 = KeyOf(c[0]), k1 = KeyOf(c[1]), k2 = KeyOf(c[2]), k3 = KeyOf(c[3]);
    const bool right01 = k1 < k0;
    const bool right23 = k3 < k2;
    const Key min01 = right01 ? k1 : k0;
    const Key min23 = right23 ? k3 : k2;
    const size_t i01 = first + right01;
    const size_t i23 = first + 2 + right23;
    const size_t take23 = -static_cast<size_t>(min23 < min01);  // all ones or zero
    return i01 ^ ((i01 ^ i23) & take23);
  }

  // Floyd's bottom-up removal (see the file comment).
  void RemoveRoot() {
    const Entry last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) return;
    size_t hole = 0;
    for (;;) {
      const size_t first = 4 * hole + 1;
      size_t best;
      if (first + 4 <= n) {
        best = MinOfFour(first);
      } else if (first < n) {
        best = first;
        for (size_t c = first + 1; c < n; ++c) {
          if (Before(heap_[c], heap_[best])) best = c;
        }
      } else {
        break;
      }
      heap_[hole] = heap_[best];
      hole = best;
    }
    heap_[hole] = last;
    SiftUp(hole);
  }

  void FreeSlot(uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.generation;  // invalidates every outstanding handle to this slot
    s.callback = nullptr;
    // Freed slots only leave free_ through Push (which unpoisons), and the
    // arena vector only grows when free_ is empty, so a poisoned region is
    // never relocated.
    OCCAMY_POISON_SLOT(&s.callback, sizeof(Callback));
    free_.push_back(slot);
  }

  void PruneDeadHead() {
    while (!heap_.empty() && slots_[SlotOf(heap_.front())].cancelled) {
      FreeSlot(SlotOf(heap_.front()));
      RemoveRoot();
    }
  }

  // Removes every cancelled entry and rebuilds the heap in O(n). The pop
  // order is unchanged: (time, seq) is a total order, so any valid heap of
  // the same live set yields the identical extraction sequence.
  void Compact() {
    size_t kept = 0;
    for (const Entry& e : heap_) {
      if (slots_[SlotOf(e)].cancelled) {
        FreeSlot(SlotOf(e));
      } else {
        heap_[kept++] = e;
      }
    }
    heap_.resize(kept);
    if (kept > 1) {
      for (size_t i = (kept - 2) / 4 + 1; i-- > 0;) SiftDown(i);
    }
  }

  std::vector<Slot> slots_;     // arena; indexed by EventHandle::slot_
  std::vector<uint32_t> free_;  // recycled arena slots
  std::vector<Entry> heap_;     // 4-ary min-heap keyed by (time, seq)
  size_t live_ = 0;             // heap entries not cancelled
  uint64_t next_seq_ = 0;
};

inline bool EventHandle::Cancel() {
  return queue_ != nullptr && queue_->CancelSlot(slot_, generation_);
}

inline bool EventHandle::IsPending() const {
  return queue_ != nullptr && queue_->IsPendingSlot(slot_, generation_);
}

}  // namespace occamy::sim
