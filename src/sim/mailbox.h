// Single-producer / single-consumer mailbox for cross-shard handoff.
//
// One mailbox carries records from exactly one producer shard to exactly one
// consumer shard of a ShardedSimulator. Synchronization is phase-based, not
// lock-based: producers Push() only while their shard executes a time
// window, and the consumer Drain()s only at the window barrier, when every
// worker is quiescent. The barrier's synchronization (see
// sharded_simulator.cc) establishes the happens-before edge between the two
// phases, so the storage itself needs no atomics — which keeps Push() on the
// packet-delivery hot path a plain vector append.
#pragma once

#include <utility>
#include <vector>

namespace occamy::sim {

template <typename T>
class SpscMailbox {
 public:
  // Producer side: stage one record. Only the owning producer shard may
  // call this, and only during window execution.
  void Push(T record) { records_.push_back(std::move(record)); }

  // Consumer side: hand every staged record, in staging order, to
  // `consume(T&)`, reset, and return how many there were. Only the owning
  // consumer shard may call this, and only at a window barrier.
  template <typename F>
  size_t Drain(F&& consume) {
    for (auto& r : records_) consume(r);
    const size_t n = records_.size();
    records_.clear();
    return n;
  }

 private:
  std::vector<T> records_;
};

}  // namespace occamy::sim
