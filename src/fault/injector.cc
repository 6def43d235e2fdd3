#include "src/fault/injector.h"

#include <algorithm>
#include <limits>
#include <map>

#include "src/core/expulsion_engine.h"
#include "src/net/host.h"
#include "src/net/switch.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace occamy::fault {

namespace {
// Salt separating the corruption draw stream from the loss stream so the
// two fault classes never correlate even with equal seeds.
constexpr uint64_t kCorruptSalt = 0x5bf0363563ae1ca7ULL;
// Salts separating the Gilbert-Elliott chain-transition and per-packet
// draw streams from each other and from the i.i.d. loss/corrupt streams.
constexpr uint64_t kGilbertChainSalt = 0x9f4a7517d2b8c3e1ULL;
constexpr uint64_t kGilbertLossSalt = 0x6c62272e07bb0142ULL;
}  // namespace

FaultInjector::FaultInjector(net::Network* net, FaultPlan plan, FaultTopology topo)
    : net_(net), plan_(std::move(plan)), topo_(std::move(topo)) {
  OCCAMY_CHECK(net_ != nullptr);
  slots_.resize(static_cast<size_t>(std::max(1, net_->num_shards())));
}

FaultCounters& FaultInjector::shard_counters() {
  return slots_[static_cast<size_t>(sim::CurrentShard())].c;
}

std::optional<std::string> FaultInjector::ResolveNode(const std::string& name,
                                                      net::NodeId* id) const {
  const std::vector<net::NodeId>* pool = nullptr;
  size_t digits = 0;
  const char* what = nullptr;
  if (name.rfind("sw", 0) == 0) {
    pool = &topo_.switches;
    digits = 2;
    what = "switches";
  } else if (name.rfind("host", 0) == 0) {
    pool = &topo_.hosts;
    digits = 4;
    what = "hosts";
  } else {
    return "fault spec: bad node '" + name + "' (expected sw<k> or host<k>)";
  }
  const unsigned long idx = std::strtoul(name.c_str() + digits, nullptr, 10);
  if (idx >= pool->size()) {
    return "fault spec: node '" + name + "' out of range (topology has " +
           std::to_string(pool->size()) + " " + what + ")";
  }
  *id = (*pool)[idx];
  return std::nullopt;
}

std::optional<std::string> FaultInjector::ResolveLink(const FaultEvent& ev, net::LinkEnd* a,
                                                      net::LinkEnd* b) const {
  net::NodeId id = 0;
  if (auto err = ResolveNode(ev.node, &id)) return err;
  net::Node& n = net_->node(id);
  if (auto* sw = dynamic_cast<net::SwitchNode*>(&n)) {
    if (ev.port >= sw->num_ports()) {
      return "fault spec: node '" + ev.node + "' has no port " + std::to_string(ev.port);
    }
    if (!sw->port_connected(ev.port)) {
      return "fault spec: node '" + ev.node + "' port " + std::to_string(ev.port) +
             " is not wired";
    }
    *a = {id, ev.port};
    *b = sw->port_peer(ev.port);
  } else if (auto* host = dynamic_cast<net::Host*>(&n)) {
    if (ev.port != 0) {
      return "fault spec: node '" + ev.node + "' is a host; its uplink is port 0";
    }
    if (!host->connected()) {
      return "fault spec: node '" + ev.node + "' has no uplink";
    }
    *a = {id, 0};
    *b = host->uplink_peer();
  } else {
    return "fault spec: node '" + ev.node + "' is neither a switch nor a host";
  }
  return std::nullopt;
}

void FaultInjector::EnsureEdge(net::LinkEnd e) {
  auto& ports = edge_state_[e.node];
  if (ports.size() <= static_cast<size_t>(e.port)) {
    ports.resize(static_cast<size_t>(e.port) + 1);
  }
}

void FaultInjector::ScheduleEdgeToggle(sim::Simulator& sim, Time at, net::LinkEnd edge,
                                       bool blackhole, int delta, bool count) {
  sim.At(at, [this, edge, blackhole, delta, count] {
    EdgeState& e = edge_state_[edge.node][static_cast<size_t>(edge.port)];
    uint32_t& field = blackhole ? e.blackhole : e.down;
    field = static_cast<uint32_t>(static_cast<int64_t>(field) + delta);
    if (count) ++shard_counters().faults_injected;
  });
}

std::optional<std::string> FaultInjector::ArmLinkFault(const FaultEvent& ev) {
  net::LinkEnd a, b;
  if (auto err = ResolveLink(ev, &a, &b)) return err;
  EnsureEdge(a);
  EnsureEdge(b);
  const bool blackhole = ev.kind == FaultKind::kBlackhole;
  // Direction a -> b: arrivals at b, toggled and read on a's shard. This
  // direction carries the faults_injected tally.
  sim::Simulator& sim_ab = net_->sim_of(a.node);
  ScheduleEdgeToggle(sim_ab, ev.at, b, blackhole, +1, /*count=*/true);
  if (ev.duration > 0) {
    ScheduleEdgeToggle(sim_ab, ev.at + ev.duration, b, blackhole, -1, /*count=*/true);
  }
  if (!blackhole) {
    // link_down also severs the reverse direction b -> a.
    sim::Simulator& sim_ba = net_->sim_of(b.node);
    ScheduleEdgeToggle(sim_ba, ev.at, a, blackhole, +1, /*count=*/false);
    if (ev.duration > 0) {
      ScheduleEdgeToggle(sim_ba, ev.at + ev.duration, a, blackhole, -1, /*count=*/false);
    }
  }
  return std::nullopt;
}

std::optional<std::string> FaultInjector::ArmFreeze(const FaultEvent& ev) {
  net::NodeId id = 0;
  if (auto err = ResolveNode(ev.node, &id)) return err;
  auto* sw = dynamic_cast<net::SwitchNode*>(&net_->node(id));
  if (sw == nullptr) {
    return "fault spec: freeze target '" + ev.node + "' is not a switch";
  }
  if (ev.part >= sw->num_partitions()) {
    return "fault spec: node '" + ev.node + "' has no partition " + std::to_string(ev.part);
  }
  const int first = ev.part >= 0 ? ev.part : 0;
  const int last = ev.part >= 0 ? ev.part : sw->num_partitions() - 1;
  for (int lane = first; lane <= last; ++lane) {
    // Only one lane per plan event tallies faults_injected, so the total is
    // independent of the switch's partition count.
    const bool count = lane == first;
    sim::Simulator& sim = net_->sim_of(id);
    sim.At(ev.at, [this, sw, lane, count] {
      sw->SetLaneFrozen(lane, true);
      if (count) ++shard_counters().faults_injected;
    });
    if (ev.duration > 0) {
      sim.At(ev.at + ev.duration, [this, sw, lane, count] {
        sw->SetLaneFrozen(lane, false);
        if (count) ++shard_counters().faults_injected;
      });
    }
  }
  return std::nullopt;
}

void FaultInjector::ArmWindow(const FaultEvent& ev) {
  Window w;
  w.at = ev.at;
  w.end = ev.duration > 0 ? ev.at + ev.duration : std::numeric_limits<Time>::max();
  w.rate = ev.rate;
  w.seed = ev.seed;
  (ev.kind == FaultKind::kLoss ? loss_windows_ : corrupt_windows_).push_back(w);
  // Marker events on the control shard make window activations visible in
  // faults_injected alongside the link toggles.
  net_->sim().At(ev.at, [this] { ++shard_counters().faults_injected; });
  if (ev.duration > 0) {
    net_->sim().At(ev.at + ev.duration, [this] { ++shard_counters().faults_injected; });
  }
}

void FaultInjector::ArmGilbert(const FaultEvent& ev) {
  GilbertWindow w;
  w.at = ev.at;
  w.end = ev.duration > 0 ? ev.at + ev.duration : std::numeric_limits<Time>::max();
  w.p_gb = ev.p_gb;
  w.p_bg = ev.p_bg;
  w.loss_good = ev.loss_good;
  w.loss_bad = ev.loss_bad;
  w.slot = ev.slot;
  w.seed = ev.seed;
  gilbert_windows_.push_back(w);
  net_->sim().At(ev.at, [this] { ++shard_counters().faults_injected; });
  if (ev.duration > 0) {
    net_->sim().At(ev.at + ev.duration, [this] { ++shard_counters().faults_injected; });
  }
}

std::optional<std::string> FaultInjector::ArmRestart(const FaultEvent& ev) {
  net::NodeId id = 0;
  if (auto err = ResolveNode(ev.node, &id)) return err;
  auto* sw = dynamic_cast<net::SwitchNode*>(&net_->node(id));
  if (sw == nullptr) {
    return "fault spec: restart target '" + ev.node + "' is not a switch";
  }
  // Each lane flushes in its own event; only lane 0 tallies the injection
  // so the total is independent of the switch's partition count.
  for (int lane = 0; lane < sw->num_partitions(); ++lane) {
    const bool count = lane == 0;
    net_->sim_of(id).At(ev.at, [this, sw, lane, count] {
      shard_counters().flushed_bytes_restart += sw->RestartLane(lane);
      if (count) ++shard_counters().faults_injected;
    });
  }
  return std::nullopt;
}

std::optional<std::string> FaultInjector::ArmCpFault(const FaultEvent& ev) {
  net::NodeId id = 0;
  if (auto err = ResolveNode(ev.node, &id)) return err;
  auto* sw = dynamic_cast<net::SwitchNode*>(&net_->node(id));
  if (sw == nullptr) {
    return std::string("fault spec: ") + FaultKindName(ev.kind) + " target '" + ev.node +
           "' is not a switch";
  }
  if (ev.part >= sw->num_partitions()) {
    return "fault spec: node '" + ev.node + "' has no partition " + std::to_string(ev.part);
  }
  const bool freeze = ev.kind == FaultKind::kCpFreeze;
  const int first = ev.part >= 0 ? ev.part : 0;
  const int last = ev.part >= 0 ? ev.part : sw->num_partitions() - 1;
  for (int lane = first; lane <= last; ++lane) {
    // Schemes without an expulsion engine have no control plane to stall;
    // the injection still counts (the fault fired, it just had no teeth).
    core::ExpulsionEngine* engine = sw->partition(lane).mutable_expulsion_engine();
    if (engine != nullptr &&
        std::find(cp_engines_.begin(), cp_engines_.end(), engine) == cp_engines_.end()) {
      cp_engines_.push_back(engine);
    }
    const bool count = lane == first;
    const Time lag = ev.lag;
    sim::Simulator& sim = net_->sim_of(id);
    sim.At(ev.at, [this, engine, freeze, lag, count] {
      if (engine != nullptr) {
        if (freeze) {
          engine->SetControlFrozen(true);
        } else {
          engine->set_control_lag(lag);
        }
      }
      if (count) ++shard_counters().faults_injected;
    });
    if (ev.duration > 0) {
      sim.At(ev.at + ev.duration, [this, engine, freeze, count] {
        if (engine != nullptr) {
          if (freeze) {
            engine->SetControlFrozen(false);
          } else {
            engine->set_control_lag(0);
          }
        }
        if (count) ++shard_counters().faults_injected;
      });
    }
  }
  return std::nullopt;
}

std::optional<std::string> FaultInjector::ArmReroutes() {
  // Every route change is known at Arm time (the plan is static), so each
  // affected switch gets its complete epoch schedule up front. Activation
  // times round *up* to the engine's conservative-window quantum: an epoch
  // boundary then coincides with a window barrier, so for any --shards>=1
  // every packet is routed under exactly the same epoch as the
  // single-threaded oracle.
  struct Delta {
    Time t = 0;
    int port = 0;
    int delta = 0;
  };
  std::map<net::NodeId, std::vector<Delta>> by_switch;
  const Time quantum = net_->route_epoch_quantum();
  const auto align = [quantum](Time t) {
    return quantum > 0 ? (t + quantum - 1) / quantum * quantum : t;
  };
  for (const FaultEvent& ev : plan_.events) {
    if (ev.kind != FaultKind::kLinkDown || !ev.reroute) continue;
    net::LinkEnd a, b;
    if (auto err = ResolveLink(ev, &a, &b)) return err;
    const Time start = align(ev.at);
    const Time end = ev.duration > 0 ? align(ev.at + ev.duration) : -1;
    if (end >= 0 && end <= start) continue;  // outage vanishes after rounding
    for (const net::LinkEnd& ep : {a, b}) {
      // Only the two switches adjacent to the downed link reroute around
      // it; a host endpoint has no routes to version.
      if (dynamic_cast<net::SwitchNode*>(&net_->node(ep.node)) == nullptr) continue;
      auto& deltas = by_switch[ep.node];
      deltas.push_back({start, ep.port, +1});
      if (end >= 0) deltas.push_back({end, ep.port, -1});
    }
  }
  for (auto& [sw_id, deltas] : by_switch) {
    auto* sw = dynamic_cast<net::SwitchNode*>(&net_->node(sw_id));
    OCCAMY_CHECK(sw != nullptr);
    std::sort(deltas.begin(), deltas.end(), [](const Delta& x, const Delta& y) {
      if (x.t != y.t) return x.t < y.t;
      if (x.port != y.port) return x.port < y.port;
      return x.delta < y.delta;
    });
    // Sweep the boundaries into cumulative per-port exclusion epochs.
    std::vector<int> down_count(static_cast<size_t>(sw->num_ports()), 0);
    std::vector<net::SwitchNode::RouteEpoch> epochs;
    size_t i = 0;
    while (i < deltas.size()) {
      const Time t = deltas[i].t;
      while (i < deltas.size() && deltas[i].t == t) {
        down_count[static_cast<size_t>(deltas[i].port)] += deltas[i].delta;
        ++i;
      }
      net::SwitchNode::RouteEpoch epoch;
      epoch.start = t;
      epoch.excluded.resize(static_cast<size_t>(sw->num_ports()), 0);
      for (size_t p = 0; p < down_count.size(); ++p) {
        epoch.excluded[p] = down_count[p] > 0 ? 1 : 0;
      }
      epochs.push_back(std::move(epoch));
    }
    // Publication markers: one event per boundary on the switch's shard —
    // the path the shard-affinity checker (and its EXPECT_DEATH test)
    // guards.
    for (const auto& epoch : epochs) {
      net_->sim_of(sw_id).At(epoch.start, [this, sw] {
        sw->OnRouteEpochPublished();
        ++shard_counters().reroutes;
      });
    }
    sw->SetRouteOutages(std::move(epochs));
  }
  return std::nullopt;
}

std::optional<std::string> FaultInjector::Arm() {
  OCCAMY_CHECK(!armed_) << "FaultInjector armed twice";
  armed_ = true;
  if (plan_.empty()) return std::nullopt;
  // Sized once here and only element-wise mutated afterwards, so the edge
  // vectors are never resized while shards read them.
  edge_state_.assign(net_->num_nodes(), {});
  net_->set_fault_injector(this);
  // Every armed toggle becomes a drain fence for the adaptive window
  // planner: batches never cross one, so a mailbox drain happens at the
  // barrier entering the window of each fault boundary — and of its
  // quantum-aligned route-epoch twin (ArmReroutes ceil-aligns epoch
  // flips). Toggles run on the owning shard, so this keeps the drain
  // schedule around fault boundaries identical at every --window-batch
  // setting rather than patching correctness.
  const Time quantum = net_->route_epoch_quantum();
  for (const FaultEvent& ev : plan_.events) {
    net_->AddDrainFence(ev.at);
    if (ev.duration > 0) net_->AddDrainFence(ev.at + ev.duration);
    if (quantum > 0) {
      const auto align = [quantum](Time t) {
        return (t + quantum - 1) / quantum * quantum;
      };
      net_->AddDrainFence(align(ev.at));
      if (ev.duration > 0) net_->AddDrainFence(align(ev.at + ev.duration));
    }
  }
  for (const FaultEvent& ev : plan_.events) {
    std::optional<std::string> err;
    switch (ev.kind) {
      case FaultKind::kLinkDown:
      case FaultKind::kBlackhole:
        err = ArmLinkFault(ev);
        break;
      case FaultKind::kLinkUp:
        // ParseFaultPlan normalizes link_up into the matching link_down's
        // duration; a plan built by hand must do the same.
        err = "fault spec: link_up events must be normalized before Arm";
        break;
      case FaultKind::kFreeze:
        err = ArmFreeze(ev);
        break;
      case FaultKind::kRestart:
        err = ArmRestart(ev);
        break;
      case FaultKind::kCpFreeze:
      case FaultKind::kCpDelay:
        err = ArmCpFault(ev);
        break;
      case FaultKind::kLoss:
      case FaultKind::kCorrupt:
        ArmWindow(ev);
        break;
      case FaultKind::kGilbert:
        ArmGilbert(ev);
        break;
    }
    if (err) return err;
  }
  if (auto err = ArmReroutes()) return err;
  if (!gilbert_windows_.empty()) {
    // Flat lane indexing for the per-(sender, lane) chain cursors: hosts
    // send from one lane, switches from one per partition.
    lane_base_.assign(net_->num_nodes() + 1, 0);
    size_t total = 0;
    for (net::NodeId id = 0; id < static_cast<net::NodeId>(net_->num_nodes()); ++id) {
      lane_base_[id] = total;
      auto* sw = dynamic_cast<net::SwitchNode*>(&net_->node(id));
      total += sw != nullptr ? static_cast<size_t>(sw->num_partitions()) : 1;
    }
    lane_base_[net_->num_nodes()] = total;
    gilbert_cursors_.assign(gilbert_windows_.size(),
                            std::vector<GilbertCursor>(total, GilbertCursor{}));
  }
  return std::nullopt;
}

bool FaultInjector::OnDeliver(net::NodeId from, int src_lane, net::LinkEnd to, uint64_t seq,
                              Time send_time, Packet& pkt) {
  // Runs on the sender's shard — the same shard that toggles the edge's
  // state, so the read below is single-shard by construction.
  if (to.node < edge_state_.size()) {
    const auto& ports = edge_state_[to.node];
    if (static_cast<size_t>(to.port) < ports.size()) {
      const EdgeState& e = ports[static_cast<size_t>(to.port)];
      if (e.down > 0) {
        ++shard_counters().link_down_drops;
        return true;
      }
      if (e.blackhole > 0) {
        ++shard_counters().blackhole_drops;
        return true;
      }
    }
  }
  if (loss_windows_.empty() && corrupt_windows_.empty() && gilbert_windows_.empty()) {
    return false;
  }
  // Per-delivery draw key: a pure function of (sender, lane, per-lane seq),
  // all of which are shard-count-invariant.
  const uint64_t key = SplitMix64(
      seq + SplitMix64((static_cast<uint64_t>(from) << 16) ^ static_cast<uint64_t>(src_lane)));
  for (const Window& w : loss_windows_) {
    if (send_time < w.at || send_time >= w.end) continue;
    Rng rng(w.seed ^ key);
    if (rng.UniformDouble() < w.rate) {
      ++shard_counters().packets_lost;
      return true;
    }
  }
  for (size_t wi = 0; wi < gilbert_windows_.size(); ++wi) {
    const GilbertWindow& w = gilbert_windows_[wi];
    if (send_time < w.at || send_time >= w.end) continue;
    // Advance this lane's Good/Bad chain to the send time's slot. Each
    // transition draw is a pure function of (seed, slot, lane), and each
    // cursor is touched only from its sender's shard (send times are
    // monotone per lane), so the walk is single-writer and lands on the
    // same state for any shard count no matter which packets triggered it.
    const int64_t target_slot = (send_time - w.at) / w.slot;
    GilbertCursor& cur = gilbert_cursors_[wi][lane_base_[from] + static_cast<size_t>(src_lane)];
    const uint64_t lane_key = SplitMix64((static_cast<uint64_t>(from) << 16) ^
                                         static_cast<uint64_t>(src_lane));
    while (cur.slot < target_slot) {
      ++cur.slot;
      Rng chain(SplitMix64(w.seed ^ kGilbertChainSalt) ^
                SplitMix64(lane_key + SplitMix64(static_cast<uint64_t>(cur.slot))));
      const double u = chain.UniformDouble();
      cur.bad = cur.bad ? !(u < w.p_bg) : u < w.p_gb;
    }
    const double rate = cur.bad ? w.loss_bad : w.loss_good;
    if (rate > 0) {
      Rng rng(SplitMix64(w.seed ^ kGilbertLossSalt) ^ key);
      if (rng.UniformDouble() < rate) {
        ++shard_counters().burst_loss_packets;
        return true;
      }
    }
  }
  for (const Window& w : corrupt_windows_) {
    if (send_time < w.at || send_time >= w.end) continue;
    Rng rng(SplitMix64(w.seed ^ kCorruptSalt) ^ key);
    if (rng.UniformDouble() < w.rate) {
      pkt.corrupted = true;
      break;
    }
  }
  return false;
}

void FaultInjector::OnCorruptedArrival() { ++shard_counters().packets_corrupted; }

FaultCounters FaultInjector::Totals() const {
  FaultCounters total;
  for (const Slot& s : slots_) {
    total.faults_injected += s.c.faults_injected;
    total.packets_lost += s.c.packets_lost;
    total.packets_corrupted += s.c.packets_corrupted;
    total.blackhole_drops += s.c.blackhole_drops;
    total.link_down_drops += s.c.link_down_drops;
    total.reroutes += s.c.reroutes;
    total.flushed_bytes_restart += s.c.flushed_bytes_restart;
    total.burst_loss_packets += s.c.burst_loss_packets;
  }
  // Control-plane stalls live in the targeted engines; folding them here is
  // post-run (no shard executing), so the read is single-threaded.
  for (const core::ExpulsionEngine* engine : cp_engines_) {
    total.cp_stalled_steps += engine->cp_stalled_steps();
  }
  return total;
}

}  // namespace occamy::fault
