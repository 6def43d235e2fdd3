// Reusable experiment scenarios mirroring the paper's three platforms:
//
//  * P4Testbed   — §6.1: 100G senders, 10G receivers, one shared buffer,
//                  open-loop traffic (Pktgen substitute).
//  * DpdkTestbed — §6.2/6.3: 8 hosts x 10G, 410KB shared buffer
//                  (5.12KB/port/Gbps), DCTCP via the kernel stack.
//  * Fabric      — §6.4: leaf-spine, web-search/collective background +
//                  incast queries, Tomahawk-style 4MB-per-8-port partitions.
//
// Scale (smoke | default | full) comes from the run's PointSpec::scale
// (`--scale`); OCCAMY_BENCH_SCALE is read only when no scale is passed.
// Below full scale (8 spines, 8 leaves, 128 hosts at 100G), the fabric
// shrinks link speed and host count (default: 4x4 with 32 hosts at 10G) to
// keep runs short, and keeps every relative parameter (buffer per port per
// Gbps, ECN in BDP, loads, query size as a fraction of buffer).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/scheme.h"
#include "src/net/topology.h"
#include "src/transport/flow_manager.h"
#include "src/util/env.h"
#include "src/workload/flow_size_dist.h"
#include "src/workload/open_loop.h"
#include "src/workload/poisson_flows.h"

namespace occamy::exp {

// ---------------- scale ----------------

enum class BenchScale { kSmoke, kDefault, kFull };

struct ScaleInfo {
  BenchScale scale;
  const char* name;
};

inline constexpr ScaleInfo kScaleTable[] = {
    {BenchScale::kSmoke, "smoke"},
    {BenchScale::kDefault, "default"},
    {BenchScale::kFull, "full"},
};

inline std::optional<BenchScale> ScaleByName(const std::string& name) {
  for (const auto& e : kScaleTable) {
    if (name == e.name) return e.scale;
  }
  return std::nullopt;
}

inline const char* ScaleName(BenchScale scale) {
  for (const auto& e : kScaleTable) {
    if (e.scale == scale) return e.name;
  }
  return "default";
}

// OCCAMY_BENCH_SCALE, for callers without an explicit scale; unset or
// unknown means default.
inline BenchScale GetBenchScale() {
  return ScaleByName(GetEnvOr("OCCAMY_BENCH_SCALE", "default")).value_or(BenchScale::kDefault);
}

// ---------------- run settings every runner takes ----------------

struct RunSettings {
  uint64_t seed = 1;
  // Fault schedule (src/fault grammar); empty = healthy run. Parsed and
  // validated upstream; armed before any workload starts.
  std::string faults;
};

// ---------------- DPDK-style star testbed (§6.2) ----------------

struct StarSpec {
  int num_hosts = 8;
  Bandwidth host_rate = Bandwidth::Gbps(10);
  std::vector<Bandwidth> host_rates;  // optional per-host override
  Time link_propagation = Microseconds(2);
  // 5.12KB per port per Gbps (Tomahawk ratio): 8 x 10G -> 410KB.
  int64_t buffer_bytes = 410 * 1000;
  int64_t ecn_threshold_bytes = 65 * 1500;  // 65 packets (paper §6.2)
  int queues_per_port = 1;
  tm::SchedulerKind scheduler = tm::SchedulerKind::kFifo;
  Scheme scheme = Scheme::kDt;
  std::vector<double> alphas;  // per class; empty = scheme default
  uint64_t seed = 1;
};

inline net::StarConfig MakeStarConfig(const StarSpec& spec) {
  net::StarConfig cfg;
  cfg.num_hosts = spec.num_hosts;
  cfg.host_rate = spec.host_rate;
  cfg.host_rates = spec.host_rates;
  cfg.link_propagation = spec.link_propagation;
  // One shared buffer across every port (the testbeds' single
  // shared-memory domain, `buffer_bytes` total).
  cfg.switch_config.ports_per_partition = spec.num_hosts;
  cfg.switch_config.tm.buffer_bytes = spec.buffer_bytes;
  cfg.switch_config.tm.ecn_threshold_bytes = spec.ecn_threshold_bytes;
  cfg.switch_config.tm.queues_per_port = spec.queues_per_port;
  cfg.switch_config.tm.scheduler = spec.scheduler;
  ApplyScheme(cfg.switch_config.tm, spec.scheme, spec.alphas);
  cfg.switch_config.scheme_factory = MakeFactory(spec.scheme);
  return cfg;
}

// The star testbed on the partition-parallel engine, on one shard: the
// testbeds have one shared buffer, so the switch and every host sit on
// shard 0, and the run executes on the calling thread. The conservative
// lookahead is the star's uniform link propagation, and every flow is
// registered before RunUntil (src/workload/pregen.h).
struct StarScenario {
  explicit StarScenario(const StarSpec& spec)
      : spec_(spec),
        // Conservative window: the star's (uniform) link propagation — every
        // host<->switch delivery carries exactly this delay, so it is the
        // tightest legal lookahead (not the leaf-spine 10us constant).
        ssim({.shards = 1, .lookahead = spec.link_propagation, .seed = spec.seed}),
        net(&ssim, [](net::NodeId) { return 0; }) {
    topo = net::BuildStar(net, MakeStarConfig(spec));
    manager = std::make_unique<transport::FlowManager>(&net);
    for (auto h : topo.hosts) manager->AttachHost(h);
  }

  // Ideal duration of a `bytes` transfer on the unloaded star (base RTT is
  // two host<->switch round trips).
  Time IdealFct(int64_t bytes) const {
    const int64_t segments = (bytes + kDefaultMss - 1) / kDefaultMss;
    return 4 * spec_.link_propagation +
           spec_.host_rate.TxTime(bytes + segments * kHeaderBytes);
  }

  workload::IdealFn IdealFn() const {
    return [this](net::NodeId, net::NodeId, int64_t bytes) { return IdealFct(bytes); };
  }

  net::SwitchNode& sw() { return topo.sw(net); }

  StarSpec spec_;
  sim::ShardedSimulator ssim;
  net::Network net;
  net::StarTopology topo;
  std::unique_ptr<transport::FlowManager> manager;
};

// ---------------- Leaf-spine fabric (§6.4) ----------------

struct FabricSpec {
  Scheme scheme = Scheme::kDt;
  std::vector<double> alphas;
  int queues_per_port = 1;
  tm::SchedulerKind scheduler = tm::SchedulerKind::kFifo;
  // Buffer density in bytes per port per Gbps (Tomahawk: 5120).
  double buffer_per_port_per_gbps = 5120.0;
  double ecn_bdp_fraction = 0.72;  // paper: ECN = 0.72 BDP
  uint64_t seed = 1;
};

// Builds the leaf-spine config (scale geometry, buffer density, ECN, BM
// scheme). `buffer_per_partition` receives the derived per-partition
// buffer size.
inline net::LeafSpineConfig MakeFabricLeafSpineConfig(const FabricSpec& spec,
                                                      BenchScale scale,
                                                      int64_t& buffer_per_partition) {
  net::LeafSpineConfig cfg;
  switch (scale) {
    case BenchScale::kSmoke:
      cfg.num_spines = 2;
      cfg.num_leaves = 2;
      cfg.hosts_per_leaf = 4;
      cfg.host_rate = cfg.uplink_rate = Bandwidth::Gbps(10);
      break;
    case BenchScale::kDefault:
      cfg.num_spines = 4;
      cfg.num_leaves = 4;
      cfg.hosts_per_leaf = 8;
      cfg.host_rate = cfg.uplink_rate = Bandwidth::Gbps(10);
      break;
    case BenchScale::kFull:
      cfg.num_spines = 8;
      cfg.num_leaves = 8;
      cfg.hosts_per_leaf = 16;
      cfg.host_rate = cfg.uplink_rate = Bandwidth::Gbps(100);
      break;
  }
  cfg.link_propagation = Microseconds(10);  // 80us base RTT across spine
  cfg.ports_per_partition = 8;
  // Buffer: density * 8 ports * Gbps per port (per partition).
  const double gbps = cfg.host_rate.gbps();
  buffer_per_partition =
      static_cast<int64_t>(spec.buffer_per_port_per_gbps * 8.0 * gbps);
  cfg.tm.buffer_bytes = buffer_per_partition;
  cfg.tm.queues_per_port = spec.queues_per_port;
  cfg.tm.scheduler = spec.scheduler;
  const int64_t bdp = cfg.host_rate.BytesIn(Microseconds(80));
  cfg.tm.ecn_threshold_bytes =
      static_cast<int64_t>(spec.ecn_bdp_fraction * static_cast<double>(bdp));
  ApplyScheme(cfg.tm, spec.scheme, spec.alphas);
  cfg.scheme_factory = MakeFactory(spec.scheme);
  return cfg;
}

// Ideal (unloaded-network) transfer models for the leaf-spine fabric.
inline int FabricHostIndexOf(const net::LeafSpineTopology& topo, net::NodeId id) {
  for (size_t i = 0; i < topo.hosts.size(); ++i) {
    if (topo.hosts[i] == id) return static_cast<int>(i);
  }
  return -1;
}

inline Time FabricIdealFct(const net::LeafSpineTopology& topo, net::NodeId src,
                           net::NodeId dst, int64_t bytes) {
  const int64_t segments = (bytes + kDefaultMss - 1) / kDefaultMss;
  return topo.BaseRtt(FabricHostIndexOf(topo, src), FabricHostIndexOf(topo, dst)) +
         topo.config.host_rate.TxTime(bytes + segments * kHeaderBytes);
}

// Ideal QCT for an incast of `bytes` into one client port.
inline Time FabricQueryIdealFct(const net::LeafSpineTopology& topo, int64_t bytes) {
  const int64_t segments = (bytes + kDefaultMss - 1) / kDefaultMss;
  return Microseconds(80) + topo.config.host_rate.TxTime(bytes + segments * kHeaderBytes);
}

// The leaf-spine fabric on the partition-parallel engine: each leaf and its
// hosts are pinned to one shard (net::LeafSpineShardOf), the lookahead is
// the fabric's uniform link propagation, and every flow is registered
// before RunUntil (src/workload/pregen.h), so no workload code mutates
// shared state while shards run. See src/exp/fabric_run.h for the runner.
struct FabricScenario {
  FabricScenario(const FabricSpec& spec, BenchScale scale, int shards = 1,
                 bool use_threads = true)
      : cfg(MakeFabricLeafSpineConfig(spec, scale, buffer_per_partition)),
        ssim({.shards = shards,
              .lookahead = cfg.link_propagation,
              .seed = spec.seed,
              .use_threads = use_threads}),
        net(&ssim, [this, shards](net::NodeId id) {
          return net::LeafSpineShardOf(cfg, shards, id);
        }) {
    topo = net::BuildLeafSpine(net, cfg);
    manager = std::make_unique<transport::FlowManager>(&net);
    for (auto h : topo.hosts) manager->AttachHost(h);
  }

  workload::IdealFn IdealFn() {
    return [this](net::NodeId s, net::NodeId d, int64_t b) {
      return FabricIdealFct(topo, s, d, b);
    };
  }

  std::function<Time(net::NodeId, int64_t)> QueryIdealFn() {
    return [this](net::NodeId, int64_t bytes) { return FabricQueryIdealFct(topo, bytes); };
  }

  int64_t buffer_per_partition = 0;
  net::LeafSpineConfig cfg;
  sim::ShardedSimulator ssim;
  net::Network net;
  net::LeafSpineTopology topo;
  std::unique_ptr<transport::FlowManager> manager;
};

}  // namespace occamy::exp
