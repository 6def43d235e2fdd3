// Event queue for the discrete-event engine.
//
// A 4-ary min-heap ordered by (time, order). `order` decides between
// same-time events; a bare queue (Push) keeps them FIFO in scheduling
// order. A simulator on a window grid (src/sim/simulator.h) orders them
// by the window that scheduled them, then by class, then by a tiebreak:
//  - bits 39..36: kMaxAhead - ahead, where `ahead` is the number of windows
//    between the scheduling window and the event's own window, saturated
//    at kMaxAhead. So at equal times an event scheduled in an older window
//    pops first.
//  - bit 35: the class. 0 = a packet delivery (net::Network), whose window
//    is the one after the window that sent it; 1 = any other (local) event.
//    So a delivery pops before the local events of the window it enters.
//  - bits 34..0: the tiebreak. Local events take the queue's insertion
//    counter; deliveries take their (source node, source lane, sequence
//    within the sending window), built by the network.
// It is the order a barrier after every window would give: a delivery
// sent in window k fires after every same-time event scheduled up to window
// k and before any scheduled from window k+1 on, so a delivery pushed at
// send time and one drained at the barrier land alike. Saturation is exact
// as long as every delivery lands fewer than kMaxAhead windows after the
// one it enters (Simulator checks it): a saturated entry is then always
// local, and the insertion counter already orders local events by window.
//
// Three decisions drive the hot path:
//  - Heap entries are 16 bytes: the time plus a packed (order << 24 | slot)
//    word. The sort key (time, order) is embedded, so sifting is pure
//    sequential-array work — comparisons never dereference into the arena —
//    and since order occupies the high bits, comparing the packed word
//    compares order. Times are never negative, so (time, seq_slot) read as
//    one unsigned 128-bit number orders entries exactly as (time, order).
//    This caps the arena at 2^24 concurrent events and one queue at 2^35
//    local events; both are checked.
//  - Pops remove the root bottom-up (Floyd): the hole walks to a leaf
//    along the smallest child, picked from four with conditional selects,
//    and the heap's last entry then sifts up from that leaf. That entry
//    usually belongs near the bottom, so the walk down needs neither a
//    comparison against it nor a data-dependent branch per level, and the
//    sift up is short.
//  - Event state (callback + liveness) lives in a contiguous freelist-
//    recycled arena: after warm-up, scheduling performs no allocation (the
//    arena and heap vectors are reused, and sim::Callback keeps every
//    per-packet closure in src/ inline). A push builds its closure directly
//    in the slot, and a pop moves it out once. EventHandle is a {slot,
//    generation} pair instead of a weak_ptr: cancelling a stale handle
//    whose slot has been recycled is a generation mismatch, hence a no-op.
//
// A pending local event can be postponed in place (PostponeLocal, the
// retransmit-timer pattern): its slot records the new key, which is the key
// a fresh PushLocal would get at that moment, and its heap entry stays
// where it is under the old, smaller key. The entry is re-keyed when it
// reaches the root (replaced and sifted down) or when the heap is
// compacted, so the heap never yields a stale time.
//
// Cancelled events are skipped lazily when they surface at the heap root,
// and compacted eagerly once they make up more than a quarter of the heap
// (so a workload that cancels many far-future timers cannot grow the heap
// unboundedly; with timers postponed in place, the dead entries left are
// mostly the timers of completed flows, each lingering one minimum RTO).
//
// Handles are only valid while the owning EventQueue is alive; they are
// plain {queue, slot, generation} triples with no ownership.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
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

  // Windows an order word can tell apart (see the file comment).
  static constexpr int kMaxAhead = 15;
  // Width of the order word's tiebreak field.
  static constexpr int kTiebreakBits = 35;

  // The order word of a delivery that enters its window `ahead` windows
  // before its time's window (0 <= ahead < kMaxAhead), with `tiebreak`
  // below 2^kTiebreakBits.
  static uint64_t DeliveryOrder(int ahead, uint64_t tiebreak) {
    return AheadBits(ahead) | tiebreak;
  }

  // The scheduling calls take any callable (or an rvalue Callback) and
  // forward it down to its arena slot, where Callback::Emplace builds it:
  // a push moves a closure once.

  // A local event, FIFO among same-time pushes.
  template <typename F>
  EventHandle Push(Time time, F&& f) {
    return PushLocal(time, 0, std::forward<F>(f));
  }

  // A local event scheduled `ahead` windows before its own (saturated at
  // kMaxAhead).
  template <typename F>
  EventHandle PushLocal(Time time, int ahead, F&& f) {
    return PushOrdered(time, LocalOrder(ahead), std::forward<F>(f));
  }

  // An event with an explicit order word (a delivery, see DeliveryOrder).
  template <typename F>
  EventHandle PushOrdered(Time time, uint64_t order, F&& f) {
    // The unsigned heap key (KeyOf) orders only non-negative times.
    OCCAMY_DCHECK_GE(time, 0);
    const uint32_t slot = TakeSlot();
    Slot& s = slots_[slot];
    s.callback.Emplace(std::forward<F>(f));
    // The pop path invokes unconditionally (the old queue silently skipped
    // null callbacks); reject the programming error at schedule time. For a
    // lambda the compiler folds the check away.
    OCCAMY_CHECK(static_cast<bool>(s.callback)) << "scheduling a null callback";
    s.state = SlotState::kQueued;
    s.time = time;
    heap_.push_back(Entry{time, (order << kSlotBits) | slot});
    SiftUp(heap_.size() - 1);
    ++live_;
    return EventHandle(this, slot, s.generation);
  }

  // Moves the pending local event behind `handle` to `time`, with the order
  // word PushLocal(time, ahead, ...) would give a new event now (so it
  // takes the next insertion counter value), and returns true. Its slot and
  // handle stay the same and its heap entry stays where it is (see the file
  // comment). Returns false, changing nothing, if the handle is not pending
  // on this queue or `time` is before the event's time. `ahead` is as for
  // PushLocal; since a simulator's windows only advance, the new key is
  // never below the old one. Only a local event (Push, PushLocal) may be
  // postponed: a delivery's order word can sort above the local one.
  bool PostponeLocal(const EventHandle& handle, Time time, int ahead) {
    if (handle.queue_ != this || !IsPendingSlot(handle.slot_, handle.generation_)) {
      return false;
    }
    Slot& s = slots_[handle.slot_];
    if (time < s.time) return false;
    if (moved_keys_.size() <= handle.slot_) moved_keys_.resize(slots_.size());
    moved_keys_[handle.slot_] = (LocalOrder(ahead) << kSlotBits) | handle.slot_;
    s.time = time;
    s.state = SlotState::kMoved;
    return true;
  }

  bool Empty() const { return live_ == 0; }

  // Events that will still fire (excludes cancelled-but-not-yet-removed
  // entries). Non-mutating, unlike NextTime().
  size_t live_size() const { return live_; }

  // Raw heap occupancy including cancelled entries awaiting removal; the
  // lazy compaction keeps this at most 4/3 of live_size() after a cancel
  // (plus a small floor).
  size_t SizeForTest() const { return heap_.size(); }

  // Time of the earliest live event. Undefined if Empty().
  Time NextTime() {
    PruneHead();
    return heap_.front().time;
  }

  // Pops the earliest live event if its time is at most `until`: moves its
  // callback into `cb`, sets `time` to its time and returns true. Returns
  // false, popping nothing, if no live event is due by then. The heap head
  // is checked once. The slot is recycled before the callback runs, so the
  // callback may freely schedule new events.
  bool PopLiveUntil(Time until, Time& time, Callback& cb) {
    if (live_ == 0) return false;
    PruneHead();
    const Entry head = heap_.front();
    if (head.time > until) return false;
    RemoveRoot();
    const uint32_t slot = SlotOf(head);
    cb = std::move(slots_[slot].callback);
    FreeSlot(slot);
    --live_;
    time = head.time;
    return true;
  }

  // PopLiveUntil with no bound, returning the time. Undefined if Empty().
  Time PopLive(Callback& cb) {
    Time time = 0;
    PopLiveUntil(std::numeric_limits<Time>::max(), time, cb);
    return time;
  }

 private:
  friend class EventHandle;

  // Arena slot index width inside Entry::seq_slot; the high 40 bits hold
  // the order word.
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kLocalBit = uint64_t{1} << kTiebreakBits;

  static uint64_t AheadBits(int ahead) {
    return static_cast<uint64_t>(kMaxAhead - ahead) << (kTiebreakBits + 1);
  }

  // The order word of a local event pushed now, `ahead` windows before its
  // own; takes the next insertion counter value.
  uint64_t LocalOrder(int ahead) {
    // A counter past its field would corrupt the class bit.
    OCCAMY_CHECK(next_seq_ >> kTiebreakBits == 0) << "event sequence overflow";
    return AheadBits(ahead) | kLocalBit | next_seq_++;
  }

  // Heap entry: the (time, order) sort key is embedded so comparisons stay
  // in this contiguous array; the slot part points at callback/liveness
  // state.
  struct Entry {
    Time time;
    uint64_t seq_slot;  // (order << kSlotBits) | slot
  };

  static uint32_t SlotOf(const Entry& e) {
    return static_cast<uint32_t>(e.seq_slot & ((1u << kSlotBits) - 1));
  }

  enum class SlotState : uint8_t {
    kQueued,     // live, and its heap entry holds its key
    kMoved,      // live, postponed: its key is (time, moved_keys_[slot])
    kCancelled,  // dead, awaiting removal from the heap
  };

  // 112 bytes: the time fits in the padding after the generation and state.
  struct Slot {
    uint32_t generation = 0;
    SlotState state = SlotState::kQueued;
    Time time = 0;  // the event's time, postponed or not
    Callback callback;
  };
  static_assert(sizeof(Slot) == 16 + sizeof(Callback), "the time must fit in the padding");

  // Compaction kicks in only past this heap size: tiny queues never pay the
  // rebuild, and the bound "dead <= max(live / 3, floor)" still holds.
  static constexpr size_t kCompactMinHeap = 64;

  uint32_t TakeSlot() {
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
    return slot;
  }

  bool CancelSlot(uint32_t slot, uint32_t generation) {
    if (!IsPendingSlot(slot, generation)) return false;
    Slot& s = slots_[slot];
    s.state = SlotState::kCancelled;
    s.callback = nullptr;  // release captured state eagerly
    --live_;
    if (heap_.size() >= kCompactMinHeap && (heap_.size() - live_) * 4 > heap_.size()) {
      Compact();
    }
    return true;
  }

  bool IsPendingSlot(uint32_t slot, uint32_t generation) const {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           slots_[slot].state != SlotState::kCancelled;
  }

  // The sort key as one unsigned 128-bit number: time in the high half,
  // seq_slot in the low. The order word sits in the high bits of seq_slot,
  // so this orders by (time, order) (slot bits only separate identical
  // order words, which cannot happen), and it is exact because times are
  // never negative.
  __extension__ using Key = unsigned __int128;
  static Key KeyOf(const Entry& e) {
    return (static_cast<Key>(static_cast<uint64_t>(e.time)) << 64) | e.seq_slot;
  }

  static bool Before(const Entry& a, const Entry& b) { return KeyOf(a) < KeyOf(b); }

  // The heap entry of a postponed slot's new key.
  Entry MovedEntry(uint32_t slot) const { return Entry{slots_[slot].time, moved_keys_[slot]}; }

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
    if (!heap_.empty()) ReplaceRoot(last);
  }

  // Puts `v` in place of the root: the root's hole walks to a leaf along
  // the smallest children, and `v` sifts up from there.
  void ReplaceRoot(const Entry v) {
    const size_t n = heap_.size();
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
    heap_[hole] = v;
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

  // Brings a live event with its current key to the root: frees cancelled
  // heads and re-keys postponed ones. Needs a live event in the heap.
  void PruneHead() {
    for (;;) {
      const uint32_t slot = SlotOf(heap_.front());
      Slot& s = slots_[slot];
      if (s.state == SlotState::kQueued) return;
      if (s.state == SlotState::kCancelled) {
        FreeSlot(slot);
        RemoveRoot();
      } else {
        s.state = SlotState::kQueued;
        ReplaceRoot(MovedEntry(slot));
      }
    }
  }

  // Removes every cancelled entry, writes the new keys of postponed ones
  // and rebuilds the heap in O(n). The pop order is unchanged: (time,
  // order) is a total order, so any valid heap of the same live set yields
  // the identical extraction sequence.
  void Compact() {
    size_t kept = 0;
    for (const Entry& e : heap_) {
      const uint32_t slot = SlotOf(e);
      Slot& s = slots_[slot];
      if (s.state == SlotState::kCancelled) {
        FreeSlot(slot);
      } else if (s.state == SlotState::kMoved) {
        s.state = SlotState::kQueued;
        heap_[kept++] = MovedEntry(slot);
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
  std::vector<Entry> heap_;     // 4-ary min-heap keyed by (time, order)
  // By slot: the seq_slot word of a postponed event's new key. Sized on the
  // first postpone, and grown only with the arena.
  std::vector<uint64_t> moved_keys_;
  size_t live_ = 0;             // heap entries not cancelled
  uint64_t next_seq_ = 0;       // insertion counter of local events
};

inline bool EventHandle::Cancel() {
  return queue_ != nullptr && queue_->CancelSlot(slot_, generation_);
}

inline bool EventHandle::IsPending() const {
  return queue_ != nullptr && queue_->IsPendingSlot(slot_, generation_);
}

}  // namespace occamy::sim
