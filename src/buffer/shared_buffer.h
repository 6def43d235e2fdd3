// Shared-buffer bookkeeping for one traffic-manager partition.
//
// Owns the cell memory and the per-queue PD queues, and maintains the
// aggregate occupancy used by every BM scheme's threshold computation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/buffer/cell_memory.h"
#include "src/buffer/pd_queue.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace occamy::buffer {

class SharedBuffer {
 public:
  SharedBuffer(int64_t buffer_bytes, int num_queues, int cell_bytes = kDefaultCellBytes)
      : cell_bytes_(cell_bytes),
        buffer_bytes_(buffer_bytes / cell_bytes * cell_bytes),  // whole cells
        cells_(buffer_bytes / cell_bytes),
        queues_(static_cast<size_t>(num_queues)) {
    OCCAMY_CHECK(num_queues > 0);
  }

  int cell_bytes() const { return cell_bytes_; }
  int64_t buffer_bytes() const { return buffer_bytes_; }
  int num_queues() const { return static_cast<int>(queues_.size()); }

  int64_t occupancy_bytes() const { return cells_.used_cells() * cell_bytes_; }
  int64_t free_bytes() const { return cells_.free_cells() * cell_bytes_; }
  // High-water mark of occupancy_bytes() over the buffer's lifetime.
  int64_t peak_occupancy_bytes() const { return peak_used_cells_ * cell_bytes_; }

  PdQueue& queue(int q) { return queues_[static_cast<size_t>(q)]; }
  const PdQueue& queue(int q) const { return queues_[static_cast<size_t>(q)]; }
  int64_t qlen_bytes(int q) const { return queues_[static_cast<size_t>(q)].LengthBytes(); }

  // True if a packet of `wire_bytes` physically fits in the free cells.
  bool Fits(int64_t wire_bytes) const {
    return cells_.free_cells() >= CellsFor(wire_bytes, cell_bytes_);
  }

  // Writes a packet into queue q. The caller has already passed admission.
  // Returns false if the buffer is physically out of cells. The descriptor
  // is built in place in the queue's ring — no copy through the call chain.
  bool Enqueue(int q, const Packet& pkt, Time now) {
    const int64_t n = CellsFor(pkt.size_bytes, cell_bytes_);
    if (!cells_.Alloc(n)) return false;
    queues_[static_cast<size_t>(q)].EmplaceBack(pkt, static_cast<int32_t>(n), now, cell_bytes_);
    peak_used_cells_ = std::max(peak_used_cells_, cells_.used_cells());
    OCCAMY_TRACE_INSTANT_ARG("buf.enqueue", "bytes", pkt.size_bytes);
    return true;
  }

  // Removes the head packet of queue q and frees its cells.
  PacketDescriptor DequeueHead(int q) {
    PacketDescriptor pd = queues_[static_cast<size_t>(q)].DequeueHead(cell_bytes_);
    cells_.Free(pd.cell_count);
    return pd;
  }

  // Invariant check: per-queue cell counts sum to the used cell count.
  void CheckConsistencyForTest() const {
    int64_t total = 0;
    for (const auto& q : queues_) total += q.LengthCells();
    OCCAMY_CHECK_EQ(total, cells_.used_cells());
  }

 private:
  int cell_bytes_;
  int64_t buffer_bytes_;
  CellMemory cells_;
  std::vector<PdQueue> queues_;
  int64_t peak_used_cells_ = 0;
};

}  // namespace occamy::buffer
