// Topology builders: single-switch star (testbed substitutes) and the
// paper's leaf-spine fabric (§6.4) with ECMP routing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/host.h"
#include "src/net/network.h"
#include "src/net/switch.h"

namespace occamy::net {

// ---- Star: N hosts around one switch (the testbed scenarios) ----

struct StarConfig {
  int num_hosts = 8;
  Bandwidth host_rate = Bandwidth::Gbps(10);
  // Per-host rate overrides (e.g. the P4 testbed's 100G sender + 10G
  // receivers); empty = all host_rate.
  std::vector<Bandwidth> host_rates;
  Time link_propagation = Microseconds(2);
  SwitchConfig switch_config;  // num_ports/port_rates filled by Build
};

struct StarTopology {
  NodeId switch_id = 0;
  std::vector<NodeId> hosts;

  Host& host(Network& net, int i) { return static_cast<Host&>(net.node(hosts[static_cast<size_t>(i)])); }
  SwitchNode& sw(Network& net) { return static_cast<SwitchNode&>(net.node(switch_id)); }
};

StarTopology BuildStar(Network& net, StarConfig config);

// ---- Star shard binding ----
//
// The star testbeds model one shared-memory switch, so their scenarios run
// on one shard. These pure functions of (config, shards, id) place a star
// across shards by hand, as the shard-affinity tests do: partition p maps
// to shard p % shards and host i to the shard of the partition owning its
// switch port, while the switch itself stays on shard 0 (Network requires
// every lane on its node's shard).

// Partition index owning switch port `port` under `config`'s layout
// (BuildStar gives the switch exactly num_hosts ports).
inline int StarPartitionOfPort(const StarConfig& config, int port) {
  const int ppp = config.switch_config.ports_per_partition > 0
                      ? config.switch_config.ports_per_partition
                      : config.num_hosts;
  return port / ppp;
}

// Shard of the star partition `lane`.
inline int StarLaneShardOf(int shards, int lane) {
  return shards <= 1 ? 0 : lane % shards;
}

// Node-level binding matching BuildStar's id layout (switch first, then
// hosts in port order): host i sits on its egress partition's shard; the
// switch sits on shard 0.
inline int StarShardOf(const StarConfig& config, int shards, NodeId id) {
  if (shards <= 1 || id == 0) return 0;
  return StarLaneShardOf(shards,
                         StarPartitionOfPort(config, static_cast<int>(id) - 1));
}

// ---- Leaf-spine (§6.4) ----

struct LeafSpineConfig {
  int num_spines = 8;
  int num_leaves = 8;
  int hosts_per_leaf = 16;
  Bandwidth host_rate = Bandwidth::Gbps(100);
  Bandwidth uplink_rate = Bandwidth::Gbps(100);
  // One-way per-link propagation; the paper's 80us base RTT across the
  // spine corresponds to ~10us per link over 8 traversals.
  Time link_propagation = Microseconds(10);
  int ports_per_partition = 8;
  tm::TmConfig tm;  // buffer per partition etc.
  BmSchemeFactory scheme_factory;
};

struct LeafSpineTopology {
  std::vector<NodeId> hosts;    // hosts_per_leaf * num_leaves, rack-major
  std::vector<NodeId> leaves;
  std::vector<NodeId> spines;
  LeafSpineConfig config;

  int num_hosts() const { return static_cast<int>(hosts.size()); }
  Host& host(Network& net, int i) { return static_cast<Host&>(net.node(hosts[static_cast<size_t>(i)])); }
  SwitchNode& leaf(Network& net, int i) {
    return static_cast<SwitchNode&>(net.node(leaves[static_cast<size_t>(i)]));
  }
  SwitchNode& spine(Network& net, int i) {
    return static_cast<SwitchNode&>(net.node(spines[static_cast<size_t>(i)]));
  }
  int rack_of(int host_index) const { return host_index / config.hosts_per_leaf; }

  // Base (unloaded) RTT between two hosts, for ideal-FCT computation.
  Time BaseRtt(int src_index, int dst_index) const;
};

LeafSpineTopology BuildLeafSpine(Network& net, LeafSpineConfig config);

// Deterministic node->shard assignment for the leaf-spine fabric, matching
// BuildLeafSpine's id layout (leaves, then spines, then hosts rack-major).
// Each leaf switch and its attached hosts form one affinity group — the
// traffic between them never crosses a shard — and spines are spread
// round-robin. A pure function of (config, shards, id), so the sharded
// engine can bind nodes to shards before the topology is built.
inline int LeafSpineShardOf(const LeafSpineConfig& config, int shards, NodeId id) {
  if (shards <= 1) return 0;
  const int leaves = config.num_leaves;
  const int spines = config.num_spines;
  const int iid = static_cast<int>(id);
  if (iid < leaves) return iid % shards;
  if (iid < leaves + spines) return (iid - leaves) % shards;
  const int host_index = iid - leaves - spines;
  return (host_index / config.hosts_per_leaf) % shards;
}

}  // namespace occamy::net
