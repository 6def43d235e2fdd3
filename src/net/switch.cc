#include "src/net/switch.h"

#include "src/util/logging.h"

namespace occamy::net {

SwitchNode::SwitchNode(SwitchConfig config) : config_(std::move(config)) {
  OCCAMY_CHECK(config_.num_ports > 0);
  OCCAMY_CHECK(config_.ports_per_partition > 0);
  OCCAMY_CHECK(config_.scheme_factory != nullptr);
  // Broadcast single-entry rate/propagation vectors; default missing ones.
  if (config_.port_rates.empty()) config_.port_rates.push_back(Bandwidth::Gbps(10));
  if (config_.port_rates.size() == 1) {
    config_.port_rates.assign(static_cast<size_t>(config_.num_ports), config_.port_rates[0]);
  }
  if (config_.port_propagations.empty()) config_.port_propagations.push_back(Microseconds(1));
  if (config_.port_propagations.size() == 1) {
    config_.port_propagations.assign(static_cast<size_t>(config_.num_ports),
                                     config_.port_propagations[0]);
  }
  OCCAMY_CHECK_EQ(static_cast<int>(config_.port_rates.size()), config_.num_ports);
  OCCAMY_CHECK_EQ(static_cast<int>(config_.port_propagations.size()), config_.num_ports);

  ports_.resize(static_cast<size_t>(config_.num_ports));
  for (int p = 0; p < config_.num_ports; ++p) {
    ports_[static_cast<size_t>(p)].rate = config_.port_rates[static_cast<size_t>(p)];
    ports_[static_cast<size_t>(p)].propagation =
        config_.port_propagations[static_cast<size_t>(p)];
  }
}

void SwitchNode::Initialize() {
  OCCAMY_CHECK(!initialized_);
  OCCAMY_CHECK(network() != nullptr) << "AddNode before Initialize";
  const int num_partitions =
      (config_.num_ports + config_.ports_per_partition - 1) / config_.ports_per_partition;
  // Partitions are this node's lanes: each sends with its own delivery
  // sequence, and all of them run on the node's simulator.
  if (network()->sharded()) network()->BindNodeLanes(id(), num_partitions);
  port_partition_.resize(static_cast<size_t>(config_.num_ports));
  port_local_.resize(static_cast<size_t>(config_.num_ports));
  lane_frozen_.assign(static_cast<size_t>(num_partitions), 0);
  for (int base = 0; base < config_.num_ports; base += config_.ports_per_partition) {
    const int count = std::min(config_.ports_per_partition, config_.num_ports - base);
    const int lane = static_cast<int>(partitions_.size());
    tm::TmConfig cfg = config_.tm;
    cfg.port_rates.clear();
    for (int i = 0; i < count; ++i) {
      cfg.port_rates.push_back(config_.port_rates[static_cast<size_t>(base + i)]);
      port_partition_[static_cast<size_t>(base + i)] = lane;
      port_local_[static_cast<size_t>(base + i)] = i;
      ports_[static_cast<size_t>(base + i)].lane = lane;
    }
    partitions_.push_back(std::make_unique<tm::TmPartition>(&sim(), cfg, config_.scheme_factory()));
  }
  initialized_ = true;
}

void SwitchNode::ConnectPort(int port, LinkEnd peer) {
  OCCAMY_CHECK(port >= 0 && port < config_.num_ports);
  ports_[static_cast<size_t>(port)].peer = peer;
  ports_[static_cast<size_t>(port)].connected = true;
}

void SwitchNode::SetRoute(NodeId dst, std::vector<int> ports) {
  OCCAMY_CHECK(!ports.empty());
  if (dst >= routes_.size()) routes_.resize(static_cast<size_t>(dst) + 1);
  routes_[dst] = std::move(ports);
}

void SwitchNode::SetRouteOutages(std::vector<RouteEpoch> epochs) {
  for (size_t i = 0; i < epochs.size(); ++i) {
    OCCAMY_CHECK_EQ(static_cast<int>(epochs[i].excluded.size()), config_.num_ports);
    if (i > 0) {
      OCCAMY_CHECK(epochs[i - 1].start < epochs[i].start) << "unsorted route epochs";
    }
  }
  route_epochs_ = std::move(epochs);
}

void SwitchNode::OnRouteEpochPublished() {
  OCCAMY_CHECK(initialized_);
  // The publication path is pinned to the switch's shard; running it
  // anywhere else would mean the injector armed the marker on the wrong
  // simulator.
  OCCAMY_ASSERT_SHARD(sim());
  ++route_epochs_published_;
}

int SwitchNode::RoutePort(const Packet& pkt, Time at) const {
  if (pkt.dst >= routes_.size()) return -1;
  const std::vector<int>& candidates = routes_[pkt.dst];
  if (candidates.empty()) return -1;
  // Per-flow ECMP; mix in the switch id so hashing does not polarize
  // across tiers.
  if (route_epochs_.empty() || route_epochs_.front().start > at) {
    if (candidates.size() == 1) return candidates[0];
    const uint64_t h = SplitMix64(pkt.flow_id ^ SplitMix64(id() + 0x9e37));
    return candidates[h % candidates.size()];
  }
  // Active epoch: the last one whose start <= at.
  size_t lo = 0, hi = route_epochs_.size();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (route_epochs_[mid].start <= at) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const std::vector<uint8_t>& excluded = route_epochs_[lo].excluded;
  size_t survivors = 0;
  for (const int c : candidates) {
    if (!excluded[static_cast<size_t>(c)]) ++survivors;
  }
  if (survivors == 0 || survivors == candidates.size()) {
    // Total outage keeps the base set (drops then count at the dead wire);
    // no exclusions in this group means the base hash applies unchanged.
    if (candidates.size() == 1) return candidates[0];
    const uint64_t h = SplitMix64(pkt.flow_id ^ SplitMix64(id() + 0x9e37));
    return candidates[h % candidates.size()];
  }
  // Re-hash the flow across the surviving candidates.
  const uint64_t h = SplitMix64(pkt.flow_id ^ SplitMix64(id() + 0x9e37));
  size_t pick = h % survivors;
  for (const int c : candidates) {
    if (excluded[static_cast<size_t>(c)]) continue;
    if (pick == 0) return c;
    --pick;
  }
  return candidates[0];  // unreachable; survivors > 0
}

void SwitchNode::DropRouteless(const Packet& pkt) {
  ++routeless_drops_;
  // A missing route drops every packet of the flow; log the first few
  // occurrences and leave the rest to the counter.
  constexpr int64_t kMaxRouteMissLogs = 3;
  if (routeless_drops_ <= kMaxRouteMissLogs) {
    OCCAMY_LOG(Warn) << "switch " << id() << ": no route to " << pkt.dst << ", dropping"
                     << (routeless_drops_ == kMaxRouteMissLogs
                             ? " (further route misses counted in routeless_drops)"
                             : "");
  } else {
    OCCAMY_LOG(Debug) << "switch " << id() << ": no route to " << pkt.dst << ", dropping";
  }
}

void SwitchNode::ReceivePacket(int /*in_port*/, Packet pkt) {
  OCCAMY_CHECK(initialized_);
  OCCAMY_ASSERT_SHARD(sim());
  // Arrival closures run at exactly the deliver time, so the clock is the
  // packet's arrival time on both engines.
  const int egress = RoutePort(pkt, sim().now());
  if (egress < 0) {
    DropRouteless(pkt);
    return;
  }
  auto& part = partition_for_port(egress);
  const auto result = part.Enqueue(local_port(egress), std::move(pkt));
  if (result.accepted) KickTx(egress);
}

void SwitchNode::SetLaneFrozen(int lane, bool frozen) {
  OCCAMY_CHECK(initialized_);
  OCCAMY_CHECK(lane >= 0 && lane < num_partitions());
  OCCAMY_ASSERT_SHARD(sim());
  uint8_t& state = lane_frozen_[static_cast<size_t>(lane)];
  if (state == static_cast<uint8_t>(frozen)) return;
  state = static_cast<uint8_t>(frozen);
  if (frozen) return;
  // Thawed: restart the egress machinery of every port the partition owns
  // (an in-flight TX kept its busy flag, so re-kicking is idempotent).
  for (int port = 0; port < config_.num_ports; ++port) {
    if (port_partition_[static_cast<size_t>(port)] == lane &&
        ports_[static_cast<size_t>(port)].connected) {
      KickTx(port);
    }
  }
}

int64_t SwitchNode::RestartLane(int lane) {
  OCCAMY_CHECK(initialized_);
  OCCAMY_CHECK(lane >= 0 && lane < num_partitions());
  OCCAMY_ASSERT_SHARD(sim());
  return partitions_[static_cast<size_t>(lane)]->RestartFlush();
}

void SwitchNode::KickTx(int port) {
  PortState& state = ports_[static_cast<size_t>(port)];
  OCCAMY_ASSERT_SHARD(sim());
  // A frozen lane serves nothing: in-flight serialization completes, but
  // its completion's re-kick lands here and parks until SetLaneFrozen
  // thaws the partition.
  if (state.busy || lane_frozen(state.lane)) return;
  OCCAMY_CHECK(state.connected) << "switch " << id() << " port " << port << " unwired";
  auto& part = partition_for_port(port);
  auto pkt = part.DequeueForPort(local_port(port));
  if (!pkt.has_value()) return;
  state.busy = true;
  const Time tx_time = state.rate.TxTime(pkt->size_bytes);
  // The delivery is stamped with the partition index as its source lane.
  auto tx_done = [this, port, p = std::move(*pkt)]() mutable {
    PortState& s = ports_[static_cast<size_t>(port)];
    network()->DeliverAfter(id(), s.propagation, s.peer, std::move(p), s.lane);
    s.busy = false;
    KickTx(port);
  };
  static_assert(sim::Callback::FitsInline<decltype(tx_done)>(),
                "the switch TX closure must not allocate");
  sim().After(tx_time, std::move(tx_done));
}

int64_t SwitchNode::TotalDrops() {
  int64_t total = 0;
  for (auto& p : partitions_) total += p->stats().TotalDrops();
  return total;
}

int64_t SwitchNode::TotalEnqueued() {
  int64_t total = 0;
  for (auto& p : partitions_) total += p->stats().enqueued_packets;
  return total;
}

void SwitchNode::set_drop_hook(std::function<void(const Packet&, tm::DropReason)> hook) {
  for (auto& p : partitions_) p->set_drop_hook(hook);
}

}  // namespace occamy::net
