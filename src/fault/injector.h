// Deterministic, shard-safe fault injection (see fault_plan.h for the
// schedule grammar).
//
// FaultInjector resolves a FaultPlan's symbolic targets against a concrete
// network, installs itself as the network's net::FaultHook, and schedules
// every fault toggle onto the Simulator of the shard that owns the affected
// state. The determinism contract mirrors the engine's:
//
//  * Link/blackhole state is kept per *directed edge*, indexed by the
//    arrival endpoint (dst node, dst port). A point-to-point edge has
//    exactly one sender, so exactly one shard (the sender's) both toggles
//    and reads each EdgeState — no cross-shard sharing, and the check in
//    OnDeliver runs on the very shard whose clock defines the send time.
//  * Toggle events are scheduled at Arm time, before the run starts. The
//    event queue is FIFO-stable at equal timestamps, so a toggle at time T
//    always executes before any packet event scheduled at T during the run
//    — the same order for every shard count.
//  * Loss/corruption draws are a pure function of (fault seed, sending
//    node, sending lane, per-lane delivery sequence) through a dedicated
//    seeded Rng: byte-identical for any --shards >= 1 and never entangled
//    with the workload's random stream.
//  * Gilbert-Elliott burst loss walks a per-(sender, lane) Good/Bad Markov
//    chain whose transition draws are pure functions of (fault seed, slot
//    index, lane); each lane's cursor is advanced only from its sender's
//    shard (send times are monotone per lane), so the chain state is
//    single-writer and shard-count-invariant.
//  * Fault-triggered rerouting is fully precomputed: the plan is static, so
//    Arm() derives every switch's complete route-epoch schedule (activation
//    times rounded up to the engine's conservative-window quantum) and
//    installs it before the run. RoutePort then selects epochs by packet
//    arrival time — a pure function — and the marker events published at
//    each boundary only assert shard affinity and count the publication.
//  * Counters live in per-shard cache-line-padded slots and are summed on
//    read, so concurrent shards never race and totals are deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/fault_plan.h"
#include "src/net/network.h"

namespace occamy::core {
class ExpulsionEngine;
}  // namespace occamy::core

namespace occamy::fault {

// The node-id universe faults resolve against: "host<k>" -> hosts[k],
// "sw<k>" -> switches[k] (topology builders list leaves before spines).
struct FaultTopology {
  std::vector<net::NodeId> hosts;
  std::vector<net::NodeId> switches;
};

struct FaultCounters {
  int64_t faults_injected = 0;    // fault activations + expiries that fired
  int64_t packets_lost = 0;       // dropped by i.i.d. loss windows
  int64_t packets_corrupted = 0;  // delivered corrupted, dropped at receiver
  int64_t blackhole_drops = 0;    // dropped by port blackholes
  int64_t link_down_drops = 0;    // dropped by downed links
  // Schema v8 (self-healing fault model):
  int64_t reroutes = 0;                // route-epoch publications
  int64_t flushed_bytes_restart = 0;   // bytes flushed by switch restarts
  int64_t burst_loss_packets = 0;      // dropped by Gilbert-Elliott windows
  int64_t cp_stalled_steps = 0;        // expulsion steps stalled by cp faults
};

class FaultInjector final : public net::FaultHook {
 public:
  // `net` must outlive the injector. The plan may be empty (Arm is a no-op
  // then, and no hook is installed).
  FaultInjector(net::Network* net, FaultPlan plan, FaultTopology topo);

  // Arm() schedules events capturing `this`; moving afterwards would
  // dangle, so the injector is pinned (hold it in std::optional and
  // emplace).
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Resolves targets, installs the hook, and schedules every toggle. Call
  // once, after topology construction and before the run. Returns an error
  // naming the offending target when the plan does not fit the topology.
  std::optional<std::string> Arm();

  // Summed per-shard counters; read after the run (cp_stalled_steps is
  // collected from the targeted expulsion engines, which is only safe once
  // no shard is executing).
  FaultCounters Totals() const;

  // net::FaultHook implementation (called by Network on delivery paths).
  bool OnDeliver(net::NodeId from, int src_lane, net::LinkEnd to, uint64_t seq,
                 Time send_time, Packet& pkt) override;
  void OnCorruptedArrival() override;

 private:
  // Directed-edge fault state, indexed [arrival node][arrival port].
  // Counts (not flags) so overlapping windows compose.
  struct EdgeState {
    uint32_t down = 0;
    uint32_t blackhole = 0;
  };

  // One loss/corruption window; end is saturated when dur = 0 (permanent).
  struct Window {
    Time at = 0;
    Time end = 0;
    double rate = 0;
    uint64_t seed = 1;
  };

  // One Gilbert-Elliott burst-loss window (end saturated like Window).
  struct GilbertWindow {
    Time at = 0;
    Time end = 0;
    double p_gb = 0;
    double p_bg = 0;
    double loss_good = 0;
    double loss_bad = 0;
    Time slot = 0;
    uint64_t seed = 1;
  };

  // Per-(window, sender lane) Markov-chain cursor. `slot` is the last slot
  // whose transition was applied (-1 = chain not started, state Good).
  // Written only from the sender's shard.
  struct GilbertCursor {
    int64_t slot = -1;
    bool bad = false;
  };

  struct alignas(64) Slot {
    FaultCounters c;
  };

  std::optional<std::string> ResolveNode(const std::string& name, net::NodeId* id) const;
  std::optional<std::string> ResolveLink(const FaultEvent& ev, net::LinkEnd* a,
                                         net::LinkEnd* b) const;
  void EnsureEdge(net::LinkEnd e);
  std::optional<std::string> ArmLinkFault(const FaultEvent& ev);
  std::optional<std::string> ArmFreeze(const FaultEvent& ev);
  std::optional<std::string> ArmRestart(const FaultEvent& ev);
  std::optional<std::string> ArmCpFault(const FaultEvent& ev);
  void ArmWindow(const FaultEvent& ev);
  void ArmGilbert(const FaultEvent& ev);
  // Precomputes and installs every switch's route-epoch schedule from the
  // plan's reroute-enabled link_down events, plus the boundary markers.
  std::optional<std::string> ArmReroutes();
  // Adds `delta` to the down/blackhole count of edge (node, port); fires on
  // the edge's single writer shard. `count` marks the one direction per
  // plan event that tallies faults_injected.
  void ScheduleEdgeToggle(sim::Simulator& sim, Time at, net::LinkEnd edge, bool blackhole,
                          int delta, bool count);

  FaultCounters& shard_counters();

  net::Network* net_;
  FaultPlan plan_;
  FaultTopology topo_;
  bool armed_ = false;
  std::vector<std::vector<EdgeState>> edge_state_;  // sized at Arm, stable after
  std::vector<Window> loss_windows_;
  std::vector<Window> corrupt_windows_;
  std::vector<GilbertWindow> gilbert_windows_;
  // Flat lane index: lane_base_[node] + src_lane (hosts have one lane,
  // switches one per partition). Sized at Arm, stable after.
  std::vector<size_t> lane_base_;
  // Cursors indexed [gilbert window][flat lane]; each element is written
  // only by its sender's shard.
  std::vector<std::vector<GilbertCursor>> gilbert_cursors_;
  // Engines targeted by cp faults (deduped); their cp_stalled_steps are
  // folded into Totals() after the run.
  std::vector<const core::ExpulsionEngine*> cp_engines_;
  std::vector<Slot> slots_;
};

}  // namespace occamy::fault
