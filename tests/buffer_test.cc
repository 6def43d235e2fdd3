#include <gtest/gtest.h>

#include "src/buffer/cell_memory.h"
#include "src/buffer/packet.h"
#include "src/buffer/pd_queue.h"
#include "src/buffer/shared_buffer.h"
#include "src/util/rng.h"

namespace occamy::buffer {
namespace {

TEST(CellsForTest, CeilingDivision) {
  EXPECT_EQ(CellsFor(1, 200), 1);
  EXPECT_EQ(CellsFor(200, 200), 1);
  EXPECT_EQ(CellsFor(201, 200), 2);
  EXPECT_EQ(CellsFor(1500, 200), 8);
  EXPECT_EQ(CellBytesFor(1500, 200), 1600);
}

TEST(CellMemoryTest, InitialState) {
  CellMemory mem(100);
  EXPECT_EQ(mem.total_cells(), 100);
  EXPECT_EQ(mem.free_cells(), 100);
  EXPECT_EQ(mem.used_cells(), 0);
}

TEST(CellMemoryTest, AllocFreeRoundTrip) {
  CellMemory mem(100);
  ASSERT_TRUE(mem.Alloc(8));
  EXPECT_EQ(mem.free_cells(), 92);
  EXPECT_EQ(mem.used_cells(), 8);
  mem.Free(8);
  EXPECT_EQ(mem.free_cells(), 100);
  EXPECT_EQ(mem.used_cells(), 0);
}

TEST(CellMemoryTest, ExhaustionFailsWithoutPartialAllocation) {
  CellMemory mem(10);
  ASSERT_TRUE(mem.Alloc(6));
  EXPECT_FALSE(mem.Alloc(5));  // only 4 left: no partial alloc
  EXPECT_EQ(mem.free_cells(), 4);
  ASSERT_TRUE(mem.Alloc(4));
  EXPECT_EQ(mem.free_cells(), 0);
  EXPECT_FALSE(mem.Alloc(1));
  EXPECT_EQ(mem.free_cells(), 0);
  mem.Free(6);
  mem.Free(4);
  EXPECT_EQ(mem.free_cells(), 10);
}

// Random allocations and frees of 1..12 cells against a reference count of
// the cells each live allocation holds.
TEST(CellMemoryTest, RandomizedAllocFreeConservation) {
  constexpr int64_t kTotal = 1000;
  CellMemory mem(kTotal);
  Rng rng(21);
  std::vector<int64_t> live;
  int64_t live_cells = 0;
  int refused = 0;
  for (int step = 0; step < 5000; ++step) {
    if (rng.Bernoulli(0.55) || live.empty()) {
      const int64_t n = rng.UniformRange(1, 12);
      const bool fits = kTotal - live_cells >= n;
      ASSERT_EQ(mem.Alloc(n), fits) << "step " << step;
      if (fits) {
        live.push_back(n);
        live_cells += n;
      } else {
        ++refused;
      }
    } else {
      const size_t idx = rng.UniformInt(live.size());
      mem.Free(live[idx]);
      live_cells -= live[idx];
      live.erase(live.begin() + static_cast<long>(idx));
    }
    ASSERT_EQ(mem.used_cells(), live_cells) << "step " << step;
    ASSERT_EQ(mem.free_cells(), kTotal - live_cells) << "step " << step;
  }
  EXPECT_GT(refused, 0) << "the walk must reach exhaustion";
}

TEST(CellMemoryDeathTest, FreeingMoreThanWasTakenDies) {
  CellMemory mem(10);
  ASSERT_TRUE(mem.Alloc(3));
  EXPECT_DEATH(mem.Free(4), "freed more cells than were taken");
}

TEST(PdQueueTest, FifoOrderAndLengths) {
  PdQueue q;
  for (int i = 0; i < 3; ++i) {
    PacketDescriptor pd;
    pd.packet.seq = static_cast<uint64_t>(i);
    pd.packet.size_bytes = 500;
    pd.cell_count = 3;
    q.Enqueue(std::move(pd), 200);
  }
  EXPECT_EQ(q.PacketCount(), 3u);
  EXPECT_EQ(q.LengthCells(), 9);
  EXPECT_EQ(q.LengthBytes(), 1800);
  for (int i = 0; i < 3; ++i) {
    PacketDescriptor pd = q.DequeueHead(200);
    EXPECT_EQ(pd.packet.seq, static_cast<uint64_t>(i));
    EXPECT_EQ(pd.cell_count, 3);
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.LengthBytes(), 0);
}

TEST(PdQueueTest, RingWrapsAndGrowsPreservingFifo) {
  // Drive the ring through many partial fill/drain cycles so head/tail wrap
  // repeatedly, then force growth mid-wrap; FIFO order and accounting must
  // survive both.
  PdQueue q;
  uint64_t next_in = 0, next_out = 0;
  Rng rng(7);
  for (int step = 0; step < 5000; ++step) {
    if (rng.Bernoulli(0.55)) {
      Packet p;
      p.seq = next_in++;
      p.size_bytes = 400;
      q.EmplaceBack(p, 2, /*now=*/static_cast<Time>(step), 200);
    } else if (!q.Empty()) {
      PacketDescriptor pd = q.DequeueHead(200);
      EXPECT_EQ(pd.packet.seq, next_out++) << "FIFO violated at step " << step;
    }
    ASSERT_EQ(q.PacketCount(), next_in - next_out);
    ASSERT_EQ(q.LengthCells(), static_cast<int64_t>(next_in - next_out) * 2);
  }
  while (!q.Empty()) {
    PacketDescriptor pd = q.DequeueHead(200);
    EXPECT_EQ(pd.packet.seq, next_out++);
  }
  EXPECT_EQ(next_in, next_out);
  EXPECT_EQ(q.LengthBytes(), 0);
}

TEST(PdQueueTest, EmplaceBackMatchesEnqueue) {
  PdQueue q;
  Packet p;
  p.seq = 42;
  p.size_bytes = 500;
  q.EmplaceBack(p, 3, Nanoseconds(9), 200);
  EXPECT_EQ(q.PacketCount(), 1u);
  EXPECT_EQ(q.LengthBytes(), 600);
  EXPECT_EQ(q.Head().packet.seq, 42u);
  EXPECT_EQ(q.Head().cell_count, 3);
  EXPECT_EQ(q.Head().enqueue_time, Nanoseconds(9));
}

TEST(SharedBufferTest, EnqueueDequeueAccounting) {
  SharedBuffer buf(10000, 4, 200);  // 50 cells
  EXPECT_EQ(buf.buffer_bytes(), 10000);
  Packet p;
  p.size_bytes = 1000;  // 5 cells
  EXPECT_TRUE(buf.Enqueue(1, p, 0));
  EXPECT_EQ(buf.occupancy_bytes(), 1000);
  EXPECT_EQ(buf.qlen_bytes(1), 1000);
  EXPECT_EQ(buf.free_bytes(), 9000);
  buf.CheckConsistencyForTest();
  const PacketDescriptor pd = buf.DequeueHead(1);
  EXPECT_EQ(pd.packet.size_bytes, 1000u);
  EXPECT_EQ(buf.occupancy_bytes(), 0);
  buf.CheckConsistencyForTest();
}

TEST(SharedBufferTest, CellGranularOccupancy) {
  SharedBuffer buf(10000, 2, 200);
  Packet p;
  p.size_bytes = 201;  // 2 cells -> 400 buffer bytes
  EXPECT_TRUE(buf.Enqueue(0, p, 0));
  EXPECT_EQ(buf.occupancy_bytes(), 400);
  EXPECT_EQ(buf.qlen_bytes(0), 400);
}

TEST(SharedBufferTest, FitsChecksFreeCells) {
  SharedBuffer buf(1000, 2, 200);  // 5 cells
  Packet p;
  p.size_bytes = 600;  // 3 cells
  EXPECT_TRUE(buf.Fits(600));
  EXPECT_TRUE(buf.Enqueue(0, p, 0));
  EXPECT_TRUE(buf.Fits(400));    // 2 cells left
  EXPECT_FALSE(buf.Fits(401));   // would need 3
  p.size_bytes = 400;
  EXPECT_TRUE(buf.Enqueue(1, p, 0));
  EXPECT_FALSE(buf.Fits(1));
  EXPECT_EQ(buf.free_bytes(), 0);
}

TEST(SharedBufferTest, BufferSizeRoundsToWholeCells) {
  SharedBuffer buf(1050, 1, 200);  // 5 cells, not 5.25
  EXPECT_EQ(buf.buffer_bytes(), 1000);
}

TEST(SharedBufferTest, ManyQueuesConsistency) {
  SharedBuffer buf(100000, 16, 200);
  Rng rng(31);
  for (int step = 0; step < 2000; ++step) {
    const int q = static_cast<int>(rng.UniformInt(16));
    if (rng.Bernoulli(0.6)) {
      Packet p;
      p.size_bytes = static_cast<uint32_t>(rng.UniformRange(64, 1500));
      if (buf.Fits(p.size_bytes)) buf.Enqueue(q, p, 0);
    } else if (!buf.queue(q).Empty()) {
      buf.DequeueHead(q);
    }
  }
  buf.CheckConsistencyForTest();
}

}  // namespace
}  // namespace occamy::buffer
