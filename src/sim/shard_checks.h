// Deterministic shard-affinity checking (OCCAMY_SHARD_CHECKS builds).
//
// The sharded engine's safety argument is ownership, not locking: every
// node, partition, and the sender/receiver halves of a Connection are
// touched only by events on their owning shard's Simulator. TSan can verify
// that, but only when thread timing happens to produce a racy interleaving;
// an affinity *violation* (work executing on the wrong shard) is a bug even
// on the runs where it doesn't race.
//
// OCCAMY_ASSERT_SHARD(sim) asserts that the thread currently executing is
// the one driving `sim` — the Simulator that owns the asserting component.
// ShardedSimulator::RunUntil binds each shard's Simulator to its index for
// the duration of the run (and unbinds afterwards), so the check fires on
// every mis-pinned call, every run, in both threaded and round-robin
// execution. Outside a sharded run, and in builds without
// OCCAMY_SHARD_CHECKS, the macro is inert: the argument expression is not
// evaluated, so call sites may do (cheap) lookups to name the owning sim.
//
// Enable with -DOCCAMY_SHARD_CHECKS=ON at CMake configure time (Debug-
// oriented: the checks sit on per-packet paths).
#pragma once

#include "src/util/check.h"

namespace occamy::sim {

class Simulator;
int CurrentShard();  // defined in sharded_simulator.cc

namespace internal {
// True when `sim` is unbound (no sharded run in progress) or bound to the
// shard executing on this thread. Out of line: the header stays includable
// from node/partition code without dragging in simulator.h.
bool OnOwningShard(const Simulator& sim);
// The shard `sim` is bound to (-1 when unbound); for failure messages.
int BoundShardOf(const Simulator& sim);
}  // namespace internal

}  // namespace occamy::sim

// The parameter is deliberately not named `sim`: the expansion spells out
// ::occamy::sim::, which the preprocessor would otherwise substitute into.
#ifdef OCCAMY_SHARD_CHECKS
#define OCCAMY_ASSERT_SHARD(owner_sim)                                          \
  OCCAMY_CHECK(::occamy::sim::internal::OnOwningShard(owner_sim))               \
      << " shard-affinity violation: thread of shard "                          \
      << ::occamy::sim::CurrentShard() << " touched state owned by shard "      \
      << ::occamy::sim::internal::BoundShardOf(owner_sim)
#else
#define OCCAMY_ASSERT_SHARD(owner_sim) static_cast<void>(0)
#endif
