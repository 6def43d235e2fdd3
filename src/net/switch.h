// Shared-memory switch node.
//
// Each switch hosts one or more TmPartitions (Tomahawk-style: every group of
// `ports_per_partition` ports shares one buffer partition, §6.4). Forwarding
// uses a per-destination route table with per-flow ECMP hashing across the
// candidate egress ports. Egress ports run a simple serialize-and-forward
// machine fed by the partition's scheduler.
//
// Shard discipline (sharded runs): the whole switch — every partition's
// buffer, BM scheme, expulsion engine, schedulers, and the egress machinery
// of every port — runs on the node's own shard. Partitions are the
// switch's *lanes* (see Network::BindNodeLanes): outbound deliveries carry
// the partition index as the source lane. Routing tables are
// epoch-versioned but the epoch table itself is immutable during a run:
// fault-driven rerouting installs the full time-indexed outage schedule
// before the run (SetRouteOutages) and RoutePort selects the active epoch
// from the packet's arrival time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/bm/bm_scheme.h"
#include "src/net/network.h"
#include "src/net/node.h"
#include "src/tm/traffic_manager.h"
#include "src/util/bandwidth.h"
#include "src/util/rng.h"

namespace occamy::net {

using BmSchemeFactory = std::function<std::unique_ptr<bm::BmScheme>()>;

struct SwitchConfig {
  int num_ports = 8;
  std::vector<Bandwidth> port_rates;  // size num_ports (broadcast if size 1)
  std::vector<Time> port_propagations;  // idem

  // Buffer partitioning: every group of this many consecutive ports shares
  // one TmPartition of `tm.buffer_bytes` (the paper's 4MB-per-8-ports).
  int ports_per_partition = 8;

  // Template for each partition; port_rates inside are filled per partition.
  tm::TmConfig tm;

  BmSchemeFactory scheme_factory;
};

class SwitchNode final : public Node {
 public:
  explicit SwitchNode(SwitchConfig config);

  // Must be called once after AddNode (partitions need their simulators).
  void Initialize();

  // Wires egress port `port` to `peer` (done by topology builders).
  void ConnectPort(int port, LinkEnd peer);

  // Routing: packets for destination host `dst` leave through one of
  // `ports` (per-flow ECMP hash when more than one).
  void SetRoute(NodeId dst, std::vector<int> ports);

  // One entry of the fault-driven route-outage schedule: from `start` on,
  // ports flagged in `excluded` are removed from every ECMP candidate set
  // and surviving candidates are re-hashed. An epoch with no exclusions
  // restores the base routes (link healed).
  struct RouteEpoch {
    Time start = 0;
    std::vector<uint8_t> excluded;  // size num_ports; 1 = port excluded
  };

  // Installs the switch's complete route-epoch schedule (sorted by start,
  // strictly increasing). Called once by fault::FaultInjector::Arm before
  // the run; the table is immutable while shards execute. When every
  // candidate of a group is excluded the base set is kept (packets then
  // drop at the dead wire, counted as link_down drops), so a total outage
  // degrades instead of misrouting.
  void SetRouteOutages(std::vector<RouteEpoch> epochs);

  // Marker invoked by the fault injector at each route-epoch activation
  // boundary, on the switch's simulator: asserts the publication path's
  // shard affinity and counts the publication. Purely observational — the
  // epoch table itself was installed before the run.
  void OnRouteEpochPublished();
  int64_t route_epochs_published() const { return route_epochs_published_; }

  // Fault injection: restarts lane `lane` — every packet buffered in the
  // lane's TmPartition is flushed (counted as restart-flush drops), and BM
  // scheme + expulsion-engine state resets to power-on defaults. In-flight
  // serialization completes (those bytes already left the buffer). Must run
  // on the switch's shard. Returns the flushed bytes.
  int64_t RestartLane(int lane);

  void ReceivePacket(int in_port, Packet pkt) override;

  int num_ports() const { return config_.num_ports; }
  int num_partitions() const { return static_cast<int>(partitions_.size()); }
  tm::TmPartition& partition(int i) { return *partitions_[static_cast<size_t>(i)]; }
  tm::TmPartition& partition_for_port(int port) {
    return *partitions_[static_cast<size_t>(port_partition_[static_cast<size_t>(port)])];
  }
  int local_port(int port) const { return port_local_[static_cast<size_t>(port)]; }
  int partition_of_port(int port) const {
    return port_partition_[static_cast<size_t>(port)];
  }
  LinkEnd port_peer(int port) const { return ports_[static_cast<size_t>(port)].peer; }
  bool port_connected(int port) const { return ports_[static_cast<size_t>(port)].connected; }

  // Fault injection (fault::FaultInjector): freezes/unfreezes partition
  // `lane`'s egress machinery. Frozen lanes keep accepting arrivals — the
  // buffer fills and the BM scheme sheds load — but serve nothing until
  // unfrozen, when every owned port is re-kicked. Must run on the switch's
  // shard; overlapping freezes do not nest (a single unfreeze thaws).
  void SetLaneFrozen(int lane, bool frozen);
  bool lane_frozen(int lane) const { return lane_frozen_[static_cast<size_t>(lane)] != 0; }

  // Queue (partition-global index) that packets of class `cls` for egress
  // `port` occupy; convenience for benches reading queue lengths.
  int64_t QueueLengthBytes(int port, int cls) {
    auto& p = partition_for_port(port);
    return p.qlen_bytes(p.QueueIndex(local_port(port), cls));
  }
  int64_t ThresholdBytes(int port, int cls) {
    auto& p = partition_for_port(port);
    return p.ThresholdBytes(p.QueueIndex(local_port(port), cls));
  }

  // Aggregated drop/enqueue counters across partitions.
  int64_t TotalDrops();
  int64_t TotalEnqueued();

  // Packets dropped because no route matched their destination (these never
  // reach a partition, so they are not part of TotalDrops()).
  int64_t routeless_drops() const { return routeless_drops_; }

  // Per-drop callback over all partitions; fires on the switch's shard.
  void set_drop_hook(std::function<void(const Packet&, tm::DropReason)> hook);

 private:
  // Deterministic route lookup: egress port for `pkt` arriving at `at`
  // (flow-hash ECMP over the candidates surviving the active route epoch),
  // or -1 when no route matches.
  int RoutePort(const Packet& pkt, Time at) const;

  void KickTx(int port);
  void DropRouteless(const Packet& pkt);

  SwitchConfig config_;
  struct PortState {
    LinkEnd peer;
    bool connected = false;
    bool busy = false;
    Bandwidth rate;
    Time propagation = 0;
    // The owning partition's index (= source lane of deliveries).
    int lane = 0;
  };
  std::vector<PortState> ports_;
  std::vector<std::unique_ptr<tm::TmPartition>> partitions_;
  // Fault injection: partition's egress machinery halted (SetLaneFrozen).
  std::vector<uint8_t> lane_frozen_;
  int64_t routeless_drops_ = 0;
  std::vector<int> port_partition_;  // global port -> partition index
  std::vector<int> port_local_;      // global port -> local port in partition
  // ECMP candidate ports indexed by destination node id (ids are dense:
  // Network::AddNode assigns them in order); empty = no route.
  std::vector<std::vector<int>> routes_;
  // Fault-driven outage schedule (empty when no rerouting fault targets
  // this switch). Sorted by start; immutable during the run.
  std::vector<RouteEpoch> route_epochs_;
  // Bumped only by OnRouteEpochPublished marker events.
  int64_t route_epochs_published_ = 0;
  bool initialized_ = false;
};

}  // namespace occamy::net
