// Packet-descriptor queues (paper §2.1, Figure 2).
//
// Each queue is a FIFO of packet descriptors; a descriptor carries the packet
// metadata plus the number of cells it occupies. Queues support normal
// dequeue at the head and head-drop (the same operation minus the cell-data
// read — paper Figure 10).
//
// Storage is a power-of-two ring over one contiguous allocation (grown
// geometrically, never shrunk) instead of std::deque: no per-chunk
// allocation on the enqueue path, and descriptors are constructed in place
// at the tail via EmplaceBack. Descriptors are move-only so nothing on the
// datapath copies one by accident.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/buffer/packet.h"
#include "src/util/check.h"

namespace occamy::buffer {

struct PacketDescriptor {
  Packet packet;
  int32_t cell_count = 0;
  Time enqueue_time = 0;

  PacketDescriptor() = default;
  PacketDescriptor(PacketDescriptor&&) = default;
  PacketDescriptor& operator=(PacketDescriptor&&) = default;
  PacketDescriptor(const PacketDescriptor&) = delete;
  PacketDescriptor& operator=(const PacketDescriptor&) = delete;
};

class PdQueue {
 public:
  bool Empty() const { return size_ == 0; }
  size_t PacketCount() const { return size_; }

  // Queue length in buffer bytes (cell-granular) — the `q_i(t)` of Eq. (1).
  int64_t LengthBytes() const { return length_bytes_; }
  int64_t LengthCells() const { return length_cells_; }

  const PacketDescriptor& Head() const {
    OCCAMY_CHECK(size_ > 0);
    return ring_[head_];
  }

  // Builds the descriptor in place at the tail — the enqueue fast path used
  // by SharedBuffer (no descriptor travels through the call chain).
  void EmplaceBack(const Packet& pkt, int32_t cell_count, Time now, int cell_bytes) {
    if (size_ == ring_.size()) Grow();
    PacketDescriptor& pd = ring_[(head_ + size_) & (ring_.size() - 1)];
    pd.packet = pkt;
    pd.cell_count = cell_count;
    pd.enqueue_time = now;
    ++size_;
    length_cells_ += cell_count;
    length_bytes_ += static_cast<int64_t>(cell_count) * cell_bytes;
  }

  void Enqueue(PacketDescriptor pd, int cell_bytes) {
    EmplaceBack(pd.packet, pd.cell_count, pd.enqueue_time, cell_bytes);
  }

  // Removes and returns the head descriptor (both normal dequeue and
  // head-drop use this; the difference is only whether cell data is read).
  PacketDescriptor DequeueHead(int cell_bytes) {
    OCCAMY_CHECK(size_ > 0);
    PacketDescriptor pd = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    length_cells_ -= pd.cell_count;
    length_bytes_ -= static_cast<int64_t>(pd.cell_count) * cell_bytes;
    OCCAMY_CHECK_GE(length_cells_, 0);
    return pd;
  }

 private:
  // Doubles the ring, unrolling the wrapped window into FIFO order.
  void Grow() {
    const size_t old_cap = ring_.size();
    std::vector<PacketDescriptor> grown(old_cap == 0 ? 8 : old_cap * 2);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(ring_[(head_ + i) & (old_cap - 1)]);
    }
    ring_ = std::move(grown);
    head_ = 0;
  }

  std::vector<PacketDescriptor> ring_;  // capacity always a power of two
  size_t head_ = 0;
  size_t size_ = 0;
  int64_t length_bytes_ = 0;
  int64_t length_cells_ = 0;
};

}  // namespace occamy::buffer
