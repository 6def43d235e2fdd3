// Event queue for the discrete-event engine.
//
// Pending events are ordered by (time, order). `order` decides between
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
// Entries are 16 bytes: the time plus a packed (order << 24 | slot) word.
// The sort key (time, order) is embedded, so ordering them never
// dereferences into the arena, and since order occupies the high bits,
// comparing the packed word compares order. Times are never negative, so
// (time, seq_slot) read as one unsigned 128-bit number orders entries
// exactly as (time, order). This caps the arena at 2^24 concurrent events
// and one queue at 2^35 local events; both are checked.
//
// The entries wait in three places, and a pop takes the least of their
// three heads, so the pop order is the one a single heap would give:
//  - The delivery FIFO, a ring in key order, takes every delivery (class
//    0). Every link has one propagation delay and a shard's clock never
//    goes back, so a shard's own deliveries are pushed in arrival order,
//    and a push appends in O(1). A delivery below the tail's key goes to
//    the near heap instead. At the tail's time that is a tie between two
//    nodes that sent at one instant, in the other order (1-2% of a run's
//    deliveries). An earlier one is a fallback, counted (counts()): mail
//    drained from another shard at a barrier, or a topology with unequal
//    link delays.
//  - The far heap takes local events whose ahead field saturated, i.e.
//    pushed at least kMaxAhead windows ahead (retransmit timers, future
//    flow starts), so they stay out of the near heap's walks.
//  - The near heap takes every other event. A queue with no delivery and
//    no far event pops from it without looking at the other places.
//
// Both heaps are 4-ary. Their roots are removed bottom-up (Floyd): the
// hole walks to a leaf along the smallest child, picked from four with
// conditional selects, and the heap's last entry then sifts up from that
// leaf. That entry usually belongs near the bottom, so the walk down needs
// neither a comparison against it nor a data-dependent branch per level,
// and the sift up is short.
//
// Event state (callback + liveness) lives in a contiguous freelist-
// recycled arena: after warm-up, scheduling performs no allocation (the
// arena, the ring and the heaps are reused and grow by doubling, and
// sim::Callback keeps every per-packet closure in src/ inline). A push
// builds its closure directly in the slot, and a pop moves it out once.
// EventHandle is a {slot, generation} pair instead of a weak_ptr:
// cancelling a stale handle whose slot has been recycled is a generation
// mismatch, hence a no-op.
//
// A pending local event can be postponed in place (PostponeLocal, the
// retransmit-timer pattern): its slot records the new key, which is the key
// a fresh PushLocal would get at that moment, and its heap entry stays
// where it is under the old, smaller key. The entry is re-keyed when it
// reaches its heap's root (replaced and sifted down) or when the queue is
// compacted, so no place yields a stale time. A delivery cannot be
// postponed: the FIFO cannot re-key an entry in place.
//
// Cancelled events are skipped lazily when they surface at a head, and
// compacted eagerly once they make up more than a quarter of the entries
// (so a workload that cancels many far-future timers cannot grow the queue
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

  // Where the deliveries went (see the file comment), counted since
  // construction. They depend only on the pushes and pops, so they repeat
  // exactly from run to run. A tie is neither.
  struct Counts {
    uint64_t fifo_deliveries = 0;  // appended to the FIFO
    uint64_t fallbacks = 0;        // earlier than the FIFO tail's time
  };
  const Counts& counts() const { return counts_; }

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
    // The unsigned key (KeyOf) orders only non-negative times.
    OCCAMY_DCHECK_GE(time, 0);
    const uint32_t slot = TakeSlot();
    Slot& s = slots_[slot];
    s.callback.Emplace(std::forward<F>(f));
    // The pop path invokes unconditionally (the old queue silently skipped
    // null callbacks); reject the programming error at schedule time. For a
    // lambda the compiler folds the check away.
    OCCAMY_CHECK(static_cast<bool>(s.callback)) << "scheduling a null callback";
    s.state = SlotState::kQueued;
    s.local = (order & kLocalBit) != 0;
    s.time = time;
    const Entry e{time, (order << kSlotBits) | slot};
    if (!s.local) {
      PushDelivery(e);
    } else if (order >> (kTiebreakBits + 1) == 0) {
      PushHeap(far_, e);  // saturated ahead bits: kMaxAhead windows ahead or more
    } else {
      PushHeap(near_, e);
    }
    ++live_;
    return EventHandle(this, slot, s.generation);
  }

  // Moves the pending local event behind `handle` to `time`, with the order
  // word PushLocal(time, ahead, ...) would give a new event now (so it
  // takes the next insertion counter value), and returns true. Its slot and
  // handle stay the same and its heap entry stays where it is (see the file
  // comment). Returns false, changing nothing, if the handle is not pending
  // on this queue, is a delivery's (the FIFO cannot re-key an entry), or
  // `time` is before the event's time. `ahead` is as for PushLocal;
  // since a simulator's windows only advance, the new key is never below
  // the old one.
  bool PostponeLocal(const EventHandle& handle, Time time, int ahead) {
    if (handle.queue_ != this || !IsPendingSlot(handle.slot_, handle.generation_)) {
      return false;
    }
    Slot& s = slots_[handle.slot_];
    if (!s.local || time < s.time) return false;
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

  // Entries in the three places, cancelled ones awaiting removal included;
  // the lazy compaction keeps this at most 4/3 of live_size() after a
  // cancel (plus a small floor).
  size_t SizeForTest() const { return Entries(); }

  // Time of the earliest live event. Undefined if Empty().
  Time NextTime() { return HeadEntry(Head()).time; }

  // Pops the earliest live event if its time is at most `until`: moves its
  // callback into `cb`, sets `time` to its time and returns true. Returns
  // false, popping nothing, if no live event is due by then. The heads are
  // checked once. The slot is recycled before the callback runs, so the
  // callback may freely schedule new events.
  bool PopLiveUntil(Time until, Time& time, Callback& cb) {
    if (live_ == 0) return false;
    Entry head;
    if ((ring_size_ | far_.size()) == 0) {
      // Every entry is near: one test, then a single heap's pop.
      while (!PruneRoot(near_)) {
      }
      head = near_.front();
      if (head.time > until) return false;
      RemoveRoot(near_);
    } else {
      const Place place = Head();
      head = HeadEntry(place);
      if (head.time > until) return false;
      RemoveHead(place);
    }
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

  // An entry: the (time, order) sort key is embedded so comparisons stay
  // in contiguous arrays; the slot part points at callback/liveness state.
  struct Entry {
    Time time;
    uint64_t seq_slot;  // (order << kSlotBits) | slot
  };

  static uint32_t SlotOf(const Entry& e) {
    return static_cast<uint32_t>(e.seq_slot & ((1u << kSlotBits) - 1));
  }

  enum class SlotState : uint8_t {
    kQueued,     // live, and its entry holds its key
    kMoved,      // live, postponed: its key is (time, moved_keys_[slot])
    kCancelled,  // dead, awaiting removal from its place
  };

  // 112 bytes: the time fits in the padding after the generation and flags.
  struct Slot {
    uint32_t generation = 0;
    SlotState state = SlotState::kQueued;
    bool local = true;  // false for a delivery, which cannot be postponed
    Time time = 0;      // the event's time, postponed or not
    Callback callback;
  };
  static_assert(sizeof(Slot) == 16 + sizeof(Callback), "the time must fit in the padding");

  enum class Place : uint8_t { kFifo, kNear, kFar };

  // Compaction kicks in only past this many entries: tiny queues never pay
  // the rebuild, and the bound "dead <= max(live / 3, floor)" still holds.
  static constexpr size_t kCompactMinEntries = 64;

  size_t Entries() const { return ring_size_ + near_.size() + far_.size(); }

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
    const size_t entries = Entries();
    if (entries >= kCompactMinEntries && (entries - live_) * 4 > entries) Compact();
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

  // The entry of a postponed slot's new key.
  Entry MovedEntry(uint32_t slot) const { return Entry{slots_[slot].time, moved_keys_[slot]}; }

  // ---- The delivery FIFO: a power-of-two ring, in key order ----

  Entry& RingAt(size_t i) { return ring_[(ring_head_ + i) & (ring_.size() - 1)]; }

  void PushDelivery(const Entry e) {
    if (ring_size_ != 0) {
      const Entry& tail = RingAt(ring_size_ - 1);
      if (Before(e, tail)) {
        if (e.time < tail.time) ++counts_.fallbacks;
        PushHeap(near_, e);
        return;
      }
    }
    if (ring_size_ == ring_.size()) GrowRing();
    ++counts_.fifo_deliveries;
    RingAt(ring_size_++) = e;
  }

  // Doubles the ring, moving its entries to the front of the new one.
  void GrowRing() {
    std::vector<Entry> grown(std::max<size_t>(16, 2 * ring_.size()));
    for (size_t i = 0; i < ring_size_; ++i) grown[i] = RingAt(i);
    ring_.swap(grown);
    ring_head_ = 0;
  }

  // ---- The two 4-ary heaps ----

  static void PushHeap(std::vector<Entry>& heap, const Entry e) {
    heap.push_back(e);
    SiftUp(heap, heap.size() - 1);
  }

  static void SiftUp(std::vector<Entry>& heap, size_t i) {
    const Entry v = heap[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!Before(v, heap[parent])) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = v;
  }

  // Index of the smallest child of the node whose children start at
  // `first`, or 0 for a leaf.
  static size_t MinChild(const std::vector<Entry>& heap, size_t first) {
    const size_t n = heap.size();
    if (first + 4 <= n) return MinOfFour(heap, first);
    if (first >= n) return 0;
    size_t best = first;
    for (size_t c = first + 1; c < n; ++c) {
      if (Before(heap[c], heap[best])) best = c;
    }
    return best;
  }

  // Top-down sift, for Compact's O(n) heap rebuild.
  static void SiftDown(std::vector<Entry>& heap, size_t i) {
    const Entry v = heap[i];
    for (;;) {
      const size_t best = MinChild(heap, 4 * i + 1);
      if (best == 0 || !Before(heap[best], v)) break;
      heap[i] = heap[best];
      i = best;
    }
    heap[i] = v;
  }

  // Index of the smallest of the four children starting at `first`, chosen
  // with conditional selects rather than branches. The last select is a
  // mask: written as `?:`, GCC turns it back into a branch that the
  // random order of the keys mispredicts half the time.
  static size_t MinOfFour(const std::vector<Entry>& heap, size_t first) {
    const Entry* c = &heap[first];
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
  static void RemoveRoot(std::vector<Entry>& heap) {
    const Entry last = heap.back();
    heap.pop_back();
    if (!heap.empty()) ReplaceRoot(heap, last);
  }

  // Puts `v` in place of the root: the root's hole walks to a leaf along
  // the smallest children, and `v` sifts up from there.
  static void ReplaceRoot(std::vector<Entry>& heap, const Entry v) {
    size_t hole = 0;
    for (size_t best; (best = MinChild(heap, 4 * hole + 1)) != 0; hole = best) {
      heap[hole] = heap[best];
    }
    heap[hole] = v;
    SiftUp(heap, hole);
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

  // ---- Across the three places ----

  Entry HeadEntry(Place place) const {
    if (place == Place::kFifo) return ring_[ring_head_];
    return place == Place::kNear ? near_.front() : far_.front();
  }

  void RemoveHead(Place place) {
    if (place == Place::kNear) {
      RemoveRoot(near_);
    } else if (place == Place::kFifo) {
      ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
      --ring_size_;
    } else {
      RemoveRoot(far_);
    }
  }

  // Returns true if the heap's root is live and current; else frees it
  // (cancelled) or re-keys it (postponed) and returns false.
  bool PruneRoot(std::vector<Entry>& heap) {
    const uint32_t slot = SlotOf(heap.front());
    Slot& s = slots_[slot];
    if (s.state == SlotState::kQueued) return true;
    if (s.state == SlotState::kCancelled) {
      FreeSlot(slot);
      RemoveRoot(heap);
    } else {
      s.state = SlotState::kQueued;
      ReplaceRoot(heap, MovedEntry(slot));
    }
    return false;
  }

  // Returns the place whose head is the earliest live event, with its
  // current key: frees cancelled heads and re-keys postponed ones. Needs a
  // live event. Each place's head is at most every key behind it (a
  // postpone only raises a key), so when the least head is live and
  // current, it is the earliest event.
  Place Head() {
    for (;;) {
      Place place = Place::kNear;
      const Entry* head = near_.empty() ? nullptr : &near_.front();
      if (!far_.empty() && (head == nullptr || Before(far_.front(), *head))) {
        place = Place::kFar;
        head = &far_.front();
      }
      if (ring_size_ != 0 && (head == nullptr || Before(ring_[ring_head_], *head))) {
        // A delivery is never postponed: a FIFO head is live or cancelled.
        const uint32_t slot = SlotOf(ring_[ring_head_]);
        if (slots_[slot].state == SlotState::kQueued) return Place::kFifo;
        FreeSlot(slot);
        RemoveHead(Place::kFifo);
      } else if (PruneRoot(place == Place::kNear ? near_ : far_)) {
        return place;
      }
    }
  }

  // Removes every cancelled entry, writes the new keys of postponed ones
  // and rebuilds each heap in O(n); the FIFO keeps its order. The pop order
  // is unchanged: (time, order) is a total order, so any valid places
  // holding the same live set yield the identical extraction sequence.
  void Compact() {
    size_t kept = 0;
    for (size_t i = 0; i < ring_size_; ++i) {
      const Entry e = RingAt(i);
      if (slots_[SlotOf(e)].state == SlotState::kCancelled) {
        FreeSlot(SlotOf(e));
      } else {
        RingAt(kept++) = e;
      }
    }
    ring_size_ = kept;
    CompactHeap(near_);
    CompactHeap(far_);
  }

  void CompactHeap(std::vector<Entry>& heap) {
    size_t kept = 0;
    for (const Entry& e : heap) {
      const uint32_t slot = SlotOf(e);
      Slot& s = slots_[slot];
      if (s.state == SlotState::kCancelled) {
        FreeSlot(slot);
      } else if (s.state == SlotState::kMoved) {
        s.state = SlotState::kQueued;
        heap[kept++] = MovedEntry(slot);
      } else {
        heap[kept++] = e;
      }
    }
    heap.resize(kept);
    if (kept > 1) {
      for (size_t i = (kept - 2) / 4 + 1; i-- > 0;) SiftDown(heap, i);
    }
  }

  std::vector<Slot> slots_;     // arena; indexed by EventHandle::slot_
  std::vector<uint32_t> free_;  // recycled arena slots
  // The delivery FIFO: ring_size_ entries from ring_head_, in key order.
  std::vector<Entry> ring_;
  size_t ring_head_ = 0;
  size_t ring_size_ = 0;
  std::vector<Entry> near_;  // the near heap, keyed by (time, order)
  std::vector<Entry> far_;   // the far heap, keyed by (time, order)
  // By slot: the seq_slot word of a postponed event's new key. Sized on the
  // first postpone, and grown only with the arena.
  std::vector<uint64_t> moved_keys_;
  size_t live_ = 0;        // entries not cancelled
  uint64_t next_seq_ = 0;  // insertion counter of local events
  Counts counts_;
};

inline bool EventHandle::Cancel() {
  return queue_ != nullptr && queue_->CancelSlot(slot_, generation_);
}

inline bool EventHandle::IsPending() const {
  return queue_ != nullptr && queue_->IsPendingSlot(slot_, generation_);
}

}  // namespace occamy::sim
