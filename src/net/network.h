// Container wiring nodes together and delivering packets between them.
//
// Links are modeled at their two halves: the *sender* (host NIC or switch
// egress port) owns serialization at the link rate; the network adds the
// propagation delay and hands the packet to the peer node. This keeps every
// queueing decision inside the explicit buffer models.
//
// Two execution modes share this class:
//  * Single-threaded (the legacy testbed scenarios): one sim::Simulator,
//    DeliverAfter schedules the arrival directly.
//  * Sharded (sim::ShardedSimulator): every node is owned by one shard and
//    all of its events run on that shard's Simulator. DeliverAfter then
//    *stages* the arrival in a per-(src-shard, dst-shard) SPSC mailbox; the
//    engine's window barrier drains each shard's inbound mailboxes and
//    inserts the arrivals in canonical (deliver_time, src_node, src_lane,
//    per-(source,lane) seq) order. That order is independent of the
//    node->shard partition and of thread timing, which is what keeps
//    sharded runs byte-identical for any shard count. Conservative
//    correctness requires every link's propagation delay to be >= the
//    engine's lookahead (checked per delivery).
//
// Lanes. A switch sends from one *lane* per buffer partition (its
// TmPartitions; BindNodeLanes sizes the per-lane delivery counters). A
// lane is only a partition index: every lane runs on its node's shard, and
// the source lane just refines the merge key and keys the fault draws.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/buffer/packet.h"
#include "src/net/node.h"
#include "src/sim/mailbox.h"
#include "src/sim/shard_checks.h"
#include "src/sim/sharded_simulator.h"
#include "src/sim/simulator.h"
#include "src/util/check.h"

namespace occamy::net {

// One end of a link: a (node, port) pair.
struct LinkEnd {
  NodeId node = 0;
  int port = 0;
};

// Fault-injection hook (implemented by fault::FaultInjector, src/fault).
// Defined here rather than in src/fault so Network needs no dependency on
// the fault subsystem; runs on the per-delivery path only while installed.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  // Consulted once per DeliverAfter, on the sender's shard, with the sending
  // lane's per-delivery sequence number and the sender's clock. Returns
  // true to drop the packet on the wire; may mark `pkt` corrupted instead
  // (the packet is then delivered and dropped by the receiver's FCS check).
  virtual bool OnDeliver(NodeId from, int src_lane, LinkEnd to, uint64_t seq, Time send_time,
                         Packet& pkt) = 0;

  // A corrupted packet reached its arrival endpoint; runs on the
  // destination's shard, which then discards the packet.
  virtual void OnCorruptedArrival() = 0;
};

class Network {
 public:
  // Shard of a node's lane, as (node id, lane index) -> shard.
  using LaneShardFn = std::function<int(NodeId, int)>;

  // Single-threaded mode: every node runs on `sim`.
  explicit Network(sim::Simulator* sim) : sim_(sim) {
    OCCAMY_CHECK(sim != nullptr);
    shard_state_.resize(1);
  }

  // Sharded mode: `shard_of(node_id)` assigns each node (at AddNode time) to
  // a shard of `ssim`; the result is clamped into range. The assignment must
  // be a pure function of the node id so that it is reproducible.
  // `lane_shard_of`, when given, must put every lane on its node's shard:
  // BindNodeLanes CHECK-fails otherwise.
  Network(sim::ShardedSimulator* ssim, std::function<int(NodeId)> shard_of,
          LaneShardFn lane_shard_of = nullptr)
      : ssim_(ssim),
        shard_assign_(std::move(shard_of)),
        lane_shard_assign_(std::move(lane_shard_of)) {
    OCCAMY_CHECK(ssim != nullptr);
    OCCAMY_CHECK(shard_assign_ != nullptr);
    sim_ = &ssim_->shard(0);
    const size_t n = static_cast<size_t>(ssim_->num_shards());
    shard_state_.resize(n);
    outboxes_.resize(n * n);
    ssim_->set_barrier_drain([this](int shard) { DrainInbound(shard); });
    // Mailbox `staged` counters double as the engine's silence signal: the
    // plan leader samples the sum at plan rounds (all shards quiescent)
    // and widens/narrows the adaptive window batch on the delta.
    ssim_->set_staged_probe([this] { return mailbox_staged(); });
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // The control simulator: the sole Simulator in single-threaded mode,
  // shard 0 in sharded mode. Workloads and setup code use it; node code
  // should prefer Node::sim() (its owning shard).
  sim::Simulator& sim() { return *sim_; }
  Time now() const { return sim_->now(); }

  bool sharded() const { return ssim_ != nullptr; }
  // True while a sharded RunUntil is executing on worker threads.
  bool sharded_run_active() const { return ssim_ != nullptr && ssim_->running(); }
  int num_shards() const { return ssim_ != nullptr ? ssim_->num_shards() : 1; }
  int shard_of(NodeId id) const {
    OCCAMY_CHECK(id < shard_of_.size());
    return shard_of_[id];
  }
  // The simulator that runs node `id`'s events.
  sim::Simulator& sim_of(NodeId id) {
    return ssim_ != nullptr ? ssim_->shard(shard_of(id)) : *sim_;
  }

  // Declares that node `id` sends from `lanes` lanes and sizes its per-lane
  // delivery counters. Must be called before any traffic leaves the node;
  // a switch does it from Initialize(), once.
  void BindNodeLanes(NodeId id, int lanes) {
    OCCAMY_CHECK(id < nodes_.size());
    OCCAMY_CHECK(lanes > 0);
    for (int lane = 0; lane_shard_assign_ != nullptr && lane < lanes; ++lane) {
      const int shard = std::clamp(lane_shard_assign_(id, lane), 0, num_shards() - 1);
      OCCAMY_CHECK_EQ(shard, shard_of(id))
          << "node " << id << " lane " << lane << " is off its node's shard";
    }
    nodes_[id]->lane_delivery_seq_.assign(static_cast<size_t>(lanes), 0);
  }

  // Takes ownership; assigns and returns the node id.
  NodeId AddNode(std::unique_ptr<Node> node) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    node->id_ = id;
    node->network_ = this;
    int shard = 0;
    if (ssim_ != nullptr) {
      shard = std::clamp(shard_assign_(id), 0, ssim_->num_shards() - 1);
    }
    shard_of_.push_back(shard);
    node->sim_ = &sim_of(id);
    nodes_.push_back(std::move(node));
    return id;
  }

  Node& node(NodeId id) {
    OCCAMY_CHECK(id < nodes_.size());
    return *nodes_[id];
  }

  size_t num_nodes() const { return nodes_.size(); }

  // Schedules arrival of `pkt` at `to` after `delay` (the propagation time;
  // serialization already elapsed at the sender). `from` is the sending
  // node; in sharded mode it keys the canonical cross-shard merge order and
  // must be the node whose event is executing. `src_lane` is the sending
  // lane (a switch passes the egress partition index); plain nodes send
  // from lane 0.
  void DeliverAfter(NodeId from, Time delay, LinkEnd to, Packet pkt, int src_lane = 0) {
    if (ssim_ == nullptr) {
      if (faults_ != nullptr &&
          faults_->OnDeliver(from, src_lane, to,
                             node(from).lane_delivery_seq_[0]++, sim_->now(), pkt)) {
        return;  // dropped on the wire; the injector accounted for it
      }
      // Single-threaded: slot 0 directly — no thread-local lookup on the
      // per-packet hot path.
      ++shard_state_[0].delivered_events;
      sim_->After(delay, Arrival{this, &node(to.node), to.port, std::move(pkt)});
      return;
    }
    OCCAMY_CHECK_GE(delay, ssim_->lookahead())
        << "cross-node delay below the conservative lookahead";
    Node& src = node(from);
    const int src_shard = shard_of(from);
    // SPSC invariant: only the sender's worker may write this outbox row
    // (and only its clock is the right send time).
    OCCAMY_DCHECK_EQ(sim::CurrentShard(), src_shard);
    OCCAMY_ASSERT_SHARD(src.sim());
    // A lane > 0 requires the source to have bound its lanes (BindNodeLanes
    // sizes the per-lane sequence counters).
    OCCAMY_DCHECK(static_cast<size_t>(src_lane) < src.lane_delivery_seq_.size());
    // The sequence is consumed even when a fault drops the packet: gaps are
    // harmless to the canonical merge order, while keeping the numbering a
    // pure function of the lane's send history for any shard count.
    const uint64_t seq = src.lane_delivery_seq_[static_cast<size_t>(src_lane)]++;
    if (faults_ != nullptr && faults_->OnDeliver(from, src_lane, to, seq, src.sim().now(), pkt)) {
      return;  // dropped on the wire; never staged
    }
    const Time deliver_time = src.sim().now() + delay;
    const int dst_shard = shard_of(to.node);
    ++shard_state_[static_cast<size_t>(src_shard)].delivered_events;
    ++shard_state_[static_cast<size_t>(src_shard)].staged_mail;
    Mail mail;
    mail.time = deliver_time;
    mail.src_node = from;
    mail.src_lane = src_lane;
    mail.seq = seq;
    mail.to = to;
    mail.pkt = std::move(pkt);
    outboxes_[static_cast<size_t>(src_shard) * static_cast<size_t>(num_shards()) +
              static_cast<size_t>(dst_shard)]
        .Push(std::move(mail));
  }

  uint64_t delivered_events() const {
    uint64_t total = 0;
    for (const auto& s : shard_state_) total += s.delivered_events;
    return total;
  }

  // Cross-shard mailbox telemetry (schema v6 counter registry). Staged =
  // records pushed by DeliverAfter in sharded mode (0 on the legacy
  // engine); drained = records merged back in at window barriers. Both
  // count simulated deliveries only, so they are byte-identical for any
  // shard count >= 1. Read after the run.
  uint64_t mailbox_staged() const {
    uint64_t total = 0;
    for (const auto& s : shard_state_) total += s.staged_mail;
    return total;
  }
  uint64_t mailbox_drained() const {
    uint64_t total = 0;
    for (const auto& s : shard_state_) total += s.drained_mail;
    return total;
  }

  // Test hook: observes every drained mailbox record as (deliver_time,
  // destination shard's clock at the drain). Used by the conservative-window
  // property tests; never set in production runs. Drains for different
  // shards run concurrently on their workers, so a probe must either be
  // internally synchronized or be used with use_threads = false.
  using DrainProbe = std::function<void(Time deliver_time, Time dst_shard_now)>;
  void set_drain_probe(DrainProbe probe) { drain_probe_ = std::move(probe); }

  // Flow ids from here up are reserved for open-loop streams
  // (workload::OpenLoopSender); transport flows stay below. FlowManager
  // dispatches arrivals by flow id alone, so an open-loop stream sharing a
  // transport id would be ACKed as that flow's data.
  static constexpr uint64_t kOpenLoopFlowIdBase = uint64_t{1} << 62;

  // Fresh unique transport ids for flows/queries created on this network.
  uint64_t NextFlowId() {
    OCCAMY_CHECK(next_flow_id_ < kOpenLoopFlowIdBase) << "transport flow ids exhausted";
    return next_flow_id_++;
  }

  // Installs the fault hook (fault::FaultInjector::Arm). Must happen before
  // the run; the hook must outlive the network's last delivery.
  void set_fault_injector(FaultHook* hook) { faults_ = hook; }
  bool fault_injection_active() const { return faults_ != nullptr; }

  // Quantum for fault-driven route-epoch activation times: on the sharded
  // engine the conservative lookahead (so epoch flips land exactly on
  // window boundaries and stay byte-identical for any shard count), 0 on
  // the legacy single-threaded engine (no rounding needed).
  Time route_epoch_quantum() const { return ssim_ != nullptr ? ssim_->lookahead() : 0; }

  // Registers a sim-time drain fence with the sharded engine's adaptive
  // window planner (no-op on the legacy engine): window batches never
  // cross it, so a mailbox drain is guaranteed at the barrier entering its
  // window. fault::FaultInjector::Arm fences every armed fault toggle and
  // quantum-aligned route-epoch boundary.
  void AddDrainFence(Time t) {
    if (ssim_ != nullptr) ssim_->AddDrainFence(t);
  }

 private:
  // The event that hands a delivered packet to its destination node, on
  // the destination's simulator (both engines schedule it). It carries the
  // packet, so it is the largest per-packet closure: sim::Callback's inline
  // buffer is sized to hold it.
  struct Arrival {
    Network* net;
    Node* dst;
    int port;
    Packet pkt;

    void operator()() {
      if (pkt.corrupted) {
        // The receiver's FCS check discards the mangled packet.
        if (net->faults_ != nullptr) net->faults_->OnCorruptedArrival();
        return;
      }
      dst->ReceivePacket(port, std::move(pkt));
    }
  };
  static_assert(sim::Callback::FitsInline<Arrival>(), "a packet arrival must not allocate");

  // One staged packet arrival. (time, src_node, src_lane, seq) is a total
  // order that depends only on simulated execution, never on sharding or
  // thread timing: each (src_node, src_lane) pair is produced by its node's
  // shard, in that lane's deterministic event order.
  struct Mail {
    Time time = 0;
    NodeId src_node = 0;
    int src_lane = 0;
    uint64_t seq = 0;
    LinkEnd to;
    Packet pkt;
  };

  // Barrier hook: moves everything staged for `shard` into its event queue,
  // in canonical order. Runs on `shard`'s worker with all shards quiescent.
  void DrainInbound(int shard) {
    OCCAMY_ASSERT_SHARD(ssim_->shard(shard));
    auto& scratch = shard_state_[static_cast<size_t>(shard)].drain_scratch;
    scratch.clear();
    const size_t n = static_cast<size_t>(num_shards());
    for (size_t src = 0; src < n; ++src) {
      outboxes_[src * n + static_cast<size_t>(shard)].DrainInto(scratch);
    }
    if (scratch.empty()) return;
    shard_state_[static_cast<size_t>(shard)].drained_mail += scratch.size();
    std::sort(scratch.begin(), scratch.end(), [](const Mail& a, const Mail& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.src_node != b.src_node) return a.src_node < b.src_node;
      if (a.src_lane != b.src_lane) return a.src_lane < b.src_lane;
      return a.seq < b.seq;
    });
    sim::Simulator& sim = ssim_->shard(shard);
    for (Mail& mail : scratch) {
      if (drain_probe_) drain_probe_(mail.time, sim.now());
      sim.At(mail.time, Arrival{this, &node(mail.to.node), mail.to.port, std::move(mail.pkt)});
    }
    scratch.clear();
  }

  // Per-shard mutable state, padded so shards never share a cache line.
  struct alignas(64) ShardState {
    uint64_t delivered_events = 0;
    uint64_t staged_mail = 0;
    uint64_t drained_mail = 0;
    std::vector<Mail> drain_scratch;
  };

  sim::Simulator* sim_ = nullptr;
  sim::ShardedSimulator* ssim_ = nullptr;
  std::function<int(NodeId)> shard_assign_;
  LaneShardFn lane_shard_assign_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<int> shard_of_;
  // Mailboxes indexed [src_shard * num_shards + dst_shard]; sized once at
  // construction, so the vector itself is never mutated concurrently.
  std::vector<sim::SpscMailbox<Mail>> outboxes_;
  std::vector<ShardState> shard_state_;
  DrainProbe drain_probe_;
  FaultHook* faults_ = nullptr;
  uint64_t next_flow_id_ = 1;
};

}  // namespace occamy::net
