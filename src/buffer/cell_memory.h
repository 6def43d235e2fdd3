// Cell memory of one shared buffer, kept as a free-cell count (paper §2.1,
// Figure 2).
//
// On the chip a packet's cells hang on a cell-pointer chain, taken from a
// free cell-pointer list on enqueue and returned to it on dequeue or
// head-drop. Nothing this simulator reports depends on which cells a packet
// holds, only on how many are free, so that is all this class keeps. The
// cost of walking the pointers — head-drop touches only this memory and the
// PD memory, never the cell data memory, which is why expulsion is cheap
// (paper §3.2 observation 2) — is modelled by the cycle counts of
// core::ExpulsionConfig (ExpulsionEngine::OpLatency), not by a chain here.
#pragma once

#include <cstdint>

#include "src/util/check.h"

namespace occamy::buffer {

class CellMemory {
 public:
  // `total_cells` is the number of cells in the shared buffer.
  explicit CellMemory(int64_t total_cells) : total_cells_(total_cells), free_cells_(total_cells) {
    OCCAMY_CHECK(total_cells > 0);
  }

  int64_t total_cells() const { return total_cells_; }
  int64_t free_cells() const { return free_cells_; }
  int64_t used_cells() const { return total_cells_ - free_cells_; }

  // Takes `n` (> 0) cells and returns true, or returns false, taking none,
  // if fewer than n are free (no partial allocation).
  bool Alloc(int64_t n) {
    OCCAMY_CHECK(n > 0);
    if (free_cells_ < n) return false;
    free_cells_ -= n;
    return true;
  }

  // Returns `n` cells taken by Alloc.
  void Free(int64_t n) {
    free_cells_ += n;
    OCCAMY_CHECK_LE(free_cells_, total_cells_) << "freed more cells than were taken";
  }

 private:
  int64_t total_cells_;
  int64_t free_cells_;
};

}  // namespace occamy::buffer
