// Container wiring nodes together and delivering packets between them.
//
// Links are modeled at their two halves: the *sender* (host NIC or switch
// egress port) owns serialization at the link rate; the network adds the
// propagation delay and hands the packet to the peer node. This keeps every
// queueing decision inside the explicit buffer models.
//
// Every node is owned by one shard of a sim::ShardedSimulator, and all of
// its events run on that shard's Simulator. A delivery carries its place in
// the event order (sim::EventQueue): the window after the one that sent it,
// then (src_node, src_lane, per-(source, lane) seq). That order is
// independent of the node->shard partition and of thread timing, which is
// what keeps runs byte-identical for any shard count. A delivery within one
// shard goes straight into the shard's queue; one to another shard is
// *staged* in a per-(src-shard, dst-shard) SPSC mailbox, and the engine's
// window barrier drains each shard's inbound mailboxes into its queue.
// Conservative correctness requires every link's propagation delay to be
// >= the engine's lookahead (checked per delivery).
//
// Lanes. A switch sends from one *lane* per buffer partition (its
// TmPartitions; BindNodeLanes sizes the per-lane delivery counters). A
// lane is only a partition index: every lane runs on its node's shard, and
// the source lane just refines the delivery's order and keys the fault
// draws.
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

  // `shard_of(node_id)` assigns each node (at AddNode time) to a shard of
  // `ssim`; the result is clamped into range. The assignment must be a pure
  // function of the node id so that it is reproducible. `lane_shard_of`,
  // when given, must put every lane on its node's shard: BindNodeLanes
  // CHECK-fails otherwise.
  Network(sim::ShardedSimulator* ssim, std::function<int(NodeId)> shard_of,
          LaneShardFn lane_shard_of = nullptr)
      : ssim_(ssim),
        shard_assign_(std::move(shard_of)),
        lane_shard_assign_(std::move(lane_shard_of)) {
    OCCAMY_CHECK(ssim != nullptr);
    OCCAMY_CHECK(shard_assign_ != nullptr);
    lookahead_ = ssim_->lookahead();
    const size_t n = static_cast<size_t>(ssim_->num_shards());
    shard_state_.resize(n);
    outboxes_.resize(n * n);
    ssim_->AddBarrierHook([this](int shard) { DrainInbound(shard); });
    // Mailbox `staged` counters double as the engine's silence signal: the
    // plan leader samples the sum at plan rounds (all shards quiescent)
    // and widens/narrows the adaptive window batch on the delta.
    ssim_->set_staged_probe([this] { return mailbox_staged(); });
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // The control simulator, shard 0. Workloads and setup code use it; node
  // code should prefer Node::sim() (its owning shard).
  sim::Simulator& sim() { return ssim_->shard(0); }
  Time now() { return sim().now(); }

  // True while a RunUntil is executing (possibly on worker threads).
  bool run_active() const { return ssim_->running(); }
  int num_shards() const { return ssim_->num_shards(); }
  int shard_of(NodeId id) const {
    OCCAMY_CHECK(id < shard_of_.size());
    return shard_of_[id];
  }
  // The simulator that runs node `id`'s events.
  sim::Simulator& sim_of(NodeId id) { return ssim_->shard(shard_of(id)); }

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
    OCCAMY_CHECK(lanes <= (1 << kLaneBits)) << "node " << id << " has over 2^" << kLaneBits
                                            << " lanes";
    nodes_[id]->lanes_.assign(static_cast<size_t>(lanes), Node::Lane{});
  }

  // Takes ownership; assigns and returns the node id.
  NodeId AddNode(std::unique_ptr<Node> node) {
    const NodeId id = static_cast<NodeId>(nodes_.size());
    OCCAMY_CHECK(id < (NodeId{1} << kNodeBits)) << "over 2^" << kNodeBits << " nodes";
    node->id_ = id;
    node->network_ = this;
    shard_of_.push_back(std::clamp(shard_assign_(id), 0, num_shards() - 1));
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
  // node; it keys the delivery's event order and must be the node whose
  // event is executing. `src_lane` is the sending lane (a switch passes the
  // egress partition index); plain nodes send from lane 0.
  void DeliverAfter(NodeId from, Time delay, LinkEnd to, Packet pkt, int src_lane = 0) {
    Node& src = node(from);
    // A lane > 0 requires the source to have bound its lanes (BindNodeLanes
    // sizes the per-lane sequence counters).
    OCCAMY_DCHECK(static_cast<size_t>(src_lane) < src.lanes_.size());
    Node::Lane& lane = src.lanes_[static_cast<size_t>(src_lane)];
    // The sequence keys the fault draws and the delivery's event order. It
    // is consumed even when a fault drops the packet: gaps are harmless to
    // the order, while keeping the numbering a pure function of the lane's
    // send history for any shard count.
    const uint64_t seq = lane.seq++;
    if (faults_ != nullptr && faults_->OnDeliver(from, src_lane, to, seq, src.sim().now(), pkt)) {
      return;  // dropped on the wire; the injector accounted for it
    }
    OCCAMY_CHECK_GE(delay, lookahead_) << "cross-node delay below the conservative lookahead";
    sim::Simulator& src_sim = src.sim();
    // SPSC invariant: only the sender's worker may write its outbox row
    // (and only its clock is the right send time).
    OCCAMY_DCHECK_EQ(sim::CurrentShard(), shard_of(from));
    OCCAMY_ASSERT_SHARD(src_sim);
    const Time deliver_time = src_sim.now() + delay;
    if (lane.window != src_sim.window_index()) {
      lane.window = src_sim.window_index();
      lane.window_base = seq;
    }
    const uint64_t order = src_sim.DeliveryOrder(
        deliver_time, DeliveryTiebreak(from, src_lane, seq - lane.window_base));
    Node& dst = node(to.node);
    if (&dst.sim() == &src_sim) {
      // Same shard: the order word puts the arrival exactly where a drain
      // would, so it goes straight into the queue.
      src_sim.AtOrdered(deliver_time, order, Arrival{this, &dst, to.port, std::move(pkt)});
      return;
    }
    const size_t src_shard = static_cast<size_t>(shard_of(from));
    ++shard_state_[src_shard].staged_mail;
    outboxes_[src_shard * static_cast<size_t>(num_shards()) +
              static_cast<size_t>(shard_of(to.node))]
        .Push(Mail{deliver_time, order, to, std::move(pkt)});
  }

  // Cross-shard mailbox telemetry (schema v6 counter registry). Staged =
  // deliveries DeliverAfter sent to another shard's mailbox (a delivery
  // within one shard skips the mailbox, so one shard stages none); drained
  // = records merged back in at window barriers. Both depend on how nodes
  // are spread over shards, so they are engine-setting keys, and the two
  // are equal after every run. Read after the run.
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

  // Quantum for fault-driven route-epoch activation times: the engine's
  // lookahead, so epoch flips land exactly on window boundaries and stay
  // byte-identical for any shard count.
  Time route_epoch_quantum() const { return lookahead_; }

  // Adds a hook run once per shard at every window barrier, after the
  // mailbox drain (sim::ShardedSimulator::AddBarrierHook).
  void AddBarrierHook(std::function<void(int shard)> hook) {
    ssim_->AddBarrierHook(std::move(hook));
  }

 private:
  // The event that hands a delivered packet to its destination node, on
  // the destination's simulator. It carries the packet, so it is the
  // largest per-packet closure: sim::Callback's inline buffer is sized to
  // hold it.
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

  // A delivery's tiebreak in the event order (sim::EventQueue): its source
  // node, source lane and sequence within the sending window, most
  // significant first. Each (node, lane) pair is produced by its node's
  // shard, in that lane's deterministic event order, so the order never
  // depends on sharding or thread timing. AddNode and BindNodeLanes check
  // the node and lane ranges.
  static constexpr int kSeqBits = 18;
  static constexpr int kLaneBits = 5;
  static constexpr int kNodeBits = 12;
  static_assert(kNodeBits + kLaneBits + kSeqBits == sim::EventQueue::kTiebreakBits);

  static uint64_t DeliveryTiebreak(NodeId from, int src_lane, uint64_t seq_in_window) {
    OCCAMY_CHECK(seq_in_window >> kSeqBits == 0)
        << "node " << from << " lane " << src_lane << " sent over 2^" << kSeqBits
        << " deliveries in one window";
    return (uint64_t{from} << (kLaneBits + kSeqBits)) |
           (static_cast<uint64_t>(src_lane) << kSeqBits) | seq_in_window;
  }

  // One staged packet arrival, with its order word from the sender's
  // simulator.
  struct Mail {
    Time time = 0;
    uint64_t order = 0;
    LinkEnd to;
    Packet pkt;
  };

  // Barrier hook: moves everything staged for `shard` into its event queue.
  // Each record carries its place in the event order, so the drain needs
  // no sort. Runs on `shard`'s worker with all shards quiescent.
  void DrainInbound(int shard) {
    sim::Simulator& sim = ssim_->shard(shard);
    OCCAMY_ASSERT_SHARD(sim);
    const size_t n = static_cast<size_t>(num_shards());
    uint64_t drained = 0;
    for (size_t src = 0; src < n; ++src) {
      drained += outboxes_[src * n + static_cast<size_t>(shard)].Drain([&](Mail& mail) {
        if (drain_probe_) drain_probe_(mail.time, sim.now());
        sim.AtOrdered(mail.time, mail.order,
                      Arrival{this, &node(mail.to.node), mail.to.port, std::move(mail.pkt)});
      });
    }
    shard_state_[static_cast<size_t>(shard)].drained_mail += drained;
  }

  // Per-shard mutable state, padded so shards never share a cache line.
  struct alignas(64) ShardState {
    uint64_t staged_mail = 0;
    uint64_t drained_mail = 0;
  };

  sim::ShardedSimulator* ssim_;
  Time lookahead_ = 0;  // the engine's, the least delay of a delivery
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
