// Allocation gate for the packet path: a run twice as long may add at most
// one heap allocation per ten extra events.
//
// This binary replaces every form of the global operator new with one that
// counts calls, so it counts every allocation the process makes, including
// those inside the standard library. Each case runs the same point for 5
// and 10 ms of simulated time and divides the extra allocations by the
// extra `sim_events`: set-up work is the same in both runs and cancels out,
// what remains is the per-event cost. Counts are deterministic, so unlike a
// timing gate this one cannot fail on a noisy host.
//
// The bound is per event, not per dequeued packet: on the P4 burst lab most
// packets drop before any dequeue. The paths it pins are the four closures
// that carry a Packet (host and switch TX completion, and the delivery's
// arrival), which sim::Callback stores inline, and the receiver's in-order
// fast path. What remains is mostly the host NIC queue's std::deque, which
// allocates one block per 8 packets (src/net/host.h).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "src/exp/scenario_runner.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (size + a - 1) / a * a);
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}

// Every block above comes from malloc or aligned_alloc, so free releases
// each of them.
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace occamy::exp {
namespace {

// At most one allocation per ten extra events. Before the packet closures
// fit sim::Callback's inline buffer every case read 0.61-0.73.
constexpr double kMaxAllocationsPerEvent = 0.1;

struct GateCase {
  const char* scenario;
  int shards;
};

void PrintTo(const GateCase& gate, std::ostream* os) {
  *os << gate.scenario << " shards=" << gate.shards;
}

struct CountedRun {
  uint64_t allocations = 0;
  double events = 0;
};

CountedRun RunCounted(const GateCase& gate, double duration_ms) {
  PointSpec spec;
  spec.scenario = gate.scenario;
  spec.bm = "occamy";
  spec.scale = BenchScale::kSmoke;
  spec.seed = 1;
  spec.duration_ms = duration_ms;
  spec.shards = gate.shards;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const PointResult result = RunPoint(spec);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_TRUE(result.ok) << result.error;
  return {after - before, result.metrics.Number("sim_events")};
}

class AllocGateTest : public ::testing::TestWithParam<GateCase> {};

TEST_P(AllocGateTest, AtMostOneAllocationPerTenExtraEvents) {
  const GateCase gate = GetParam();
  const CountedRun shorter = RunCounted(gate, 5);
  const CountedRun longer = RunCounted(gate, 10);
  ASSERT_GT(longer.events, shorter.events) << "the longer run must do more work";
  const double extra_events = longer.events - shorter.events;
  const double per_event =
      (static_cast<double>(longer.allocations) - static_cast<double>(shorter.allocations)) /
      extra_events;
  std::printf("%s shards=%d: %.0f extra events, %.4f allocations per extra event\n",
              gate.scenario, gate.shards, extra_events, per_event);
  EXPECT_LE(per_event, kMaxAllocationsPerEvent)
      << gate.scenario << " at shards=" << gate.shards << " allocates on the packet path";
}

// Star (choking) and P4 (burst) on their one shard; the fabric (websearch)
// at 1 shard and at 2, where deliveries cross the mailboxes; and the
// fabric's closed-loop alltoall, whose flows re-arm their retransmit timer
// (postponed in place) on every new ACK.
INSTANTIATE_TEST_SUITE_P(
    PacketPath, AllocGateTest,
    ::testing::Values(GateCase{"choking", 1}, GateCase{"burst", 1}, GateCase{"websearch", 1},
                      GateCase{"websearch", 2}, GateCase{"alltoall", 1}),
    [](const ::testing::TestParamInfo<GateCase>& info) {
      return std::string(info.param.scenario) + "_shards" + std::to_string(info.param.shards);
    });

}  // namespace
}  // namespace occamy::exp
