#include "src/transport/flow_manager.h"

#include <algorithm>
#include <functional>

#include "src/sim/sharded_simulator.h"
#include "src/util/check.h"

namespace occamy::transport {

FlowManager::FlowManager(net::Network* net, TransportConfig config)
    : net_(net), config_(config), flows_(1), connections_(1) {
  OCCAMY_CHECK(net != nullptr);
  OCCAMY_CHECK(config_.mss > 0);
  shard_state_.resize(static_cast<size_t>(net_->num_shards()));
  net_->AddBarrierHook([this](int shard) { FreeFinished(shard); });
}

void FlowManager::AttachHost(net::NodeId host_id) {
  host(host_id).set_receiver([this](const Packet& pkt) { Dispatch(pkt); });
}

uint64_t FlowManager::StartFlow(FlowParams params) {
  OCCAMY_CHECK(!net_->run_active())
      << "StartFlow during a run; register the schedule before RunUntil";
  if (params.id == 0) params.id = net_->NextFlowId();
  OCCAMY_CHECK(params.id < net::Network::kOpenLoopFlowIdBase)
      << "flow id " << params.id << " is in the open-loop range";
  // Ids index the flow and connection tables, so they must stay dense.
  OCCAMY_CHECK_EQ(params.id, flows_.size()) << "flow ids are assigned by StartFlow";
  OCCAMY_CHECK(params.src != params.dst) << "flow to self";
  OCCAMY_CHECK(params.src < net_->num_nodes() && params.dst < net_->num_nodes());
  OCCAMY_CHECK(params.size_bytes > 0);
  flows_.push_back(params);
  connections_.emplace_back();
  if (chains_.size() <= params.src) chains_.resize(net_->num_nodes());
  StartChain& chain = chains_[params.src];
  chain.heap.push_back({params.start_time, params.id});
  std::push_heap(chain.heap.begin(), chain.heap.end(), std::greater<>());
  // A new earliest flow moves the chain's pending event forward.
  if (chain.heap.front().id == params.id) ArmStartChain(params.src);
  return params.id;
}

void FlowManager::ArmStartChain(net::NodeId host) {
  StartChain& chain = chains_[host];
  chain.armed.Cancel();
  // The flow starts at its source host, so the chain runs on that host's
  // shard.
  sim::Simulator& sim = net_->sim_of(host);
  chain.armed = sim.At(std::max(chain.heap.front().time, sim.now()),
                       [this, host] { StartNext(host); });
}

void FlowManager::StartNext(net::NodeId host) {
  StartChain& chain = chains_[host];
  std::pop_heap(chain.heap.begin(), chain.heap.end(), std::greater<>());
  const uint64_t id = chain.heap.back().id;
  chain.heap.pop_back();
  mutable_counters().flows_started++;
  connections_[id] = std::make_unique<Connection>(this, flows_[id]);
  connections_[id]->Start();
  if (!chain.heap.empty()) ArmStartChain(host);
}

FlowManager::Counters FlowManager::counters() const {
  Counters total;
  for (const auto& s : shard_state_) {
    total.flows_started += s.counters.flows_started;
    total.flows_completed += s.counters.flows_completed;
    total.data_packets_sent += s.counters.data_packets_sent;
    total.retransmitted_packets += s.counters.retransmitted_packets;
    total.acks_sent += s.counters.acks_sent;
    total.rtos += s.counters.rtos;
    total.fast_retransmits += s.counters.fast_retransmits;
  }
  return total;
}

FlowManager::ShardState& FlowManager::slot() {
  // One shard takes slot 0 without the thread-local lookup — this sits on
  // the per-packet hot path (data/ack/retx counters).
  if (shard_state_.size() == 1) return shard_state_[0];
  return shard_state_[static_cast<size_t>(sim::CurrentShard())];
}

Connection* FlowManager::FindConnection(uint64_t flow_id) {
  return flow_id < connections_.size() ? connections_[flow_id].get() : nullptr;
}

void FlowManager::Dispatch(const Packet& pkt) {
  // Ids 1.. have flow records; 0 and open-loop ids have none.
  if (pkt.flow_id == 0 || pkt.flow_id >= flows_.size()) return;
  Connection* conn = connections_[pkt.flow_id].get();
  if (conn != nullptr) {
    if (pkt.IsAck()) {
      conn->HandleAck(pkt);
    } else {
      conn->HandleData(pkt);
    }
  } else if (!pkt.IsAck()) {
    // A segment of a finished flow: the sender completed, so the receiver
    // had every byte, and the ACK covers the whole flow.
    const FlowParams& p = flows_[pkt.flow_id];
    SendAck(p, pkt, p.size_bytes);
  }
}

void FlowManager::SendAck(const FlowParams& p, const Packet& pkt, int64_t ack_seq) {
  // Cumulative ACK echoing the segment's CE mark and send timestamp.
  Packet ack;
  ack.kind = PacketKind::kAck;
  ack.flow_id = p.id;
  ack.src = p.dst;
  ack.dst = p.src;
  ack.traffic_class = pkt.traffic_class;
  ack.ecn_capable = false;  // ACKs are not ECN-capable transport packets
  ack.size_bytes = static_cast<uint32_t>(config_.ack_bytes);
  ack.ack_seq = static_cast<uint64_t>(ack_seq);
  ack.ece = pkt.ce;
  ack.ts_sent = pkt.ts_sent;
  mutable_counters().acks_sent++;
  host(p.dst).Send(std::move(ack));
}

void FlowManager::OnConnectionComplete(Connection* conn, Time end_time) {
  const FlowParams& p = conn->params();
  stats::CompletionRecord rec;
  rec.id = p.id;
  rec.bytes = p.size_bytes;
  rec.start = p.start_time;
  rec.end = end_time;
  rec.ideal = p.ideal_duration;
  rec.traffic_class = p.traffic_class;
  ShardState& s = slot();
  s.counters.flows_completed++;
  s.completions.Add(rec);
  // We are inside the connection's own call stack: free it at the next
  // barrier.
  s.finished.push_back(p.id);
}

void FlowManager::FreeFinished(int shard) {
  // Each shard frees only the connections its own senders completed, so
  // the shards' hooks touch disjoint table entries.
  auto& finished = shard_state_[static_cast<size_t>(shard)].finished;
  for (const uint64_t id : finished) connections_[id].reset();
  finished.clear();
}

const stats::CompletionCollector& FlowManager::completions() {
  OCCAMY_CHECK(!net_->run_active()) << "completions() during a run";
  for (auto& s : shard_state_) {
    if (completions_.Count() == 0) {
      std::swap(completions_, s.completions);  // one shard's slot: no copy
    } else {
      for (const auto& rec : s.completions.records()) completions_.Add(rec);
      s.completions = {};
    }
  }
  completions_.SortByEnd();
  return completions_;
}

}  // namespace occamy::transport
