#include "src/transport/flow_manager.h"

#include <algorithm>

#include "src/sim/sharded_simulator.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace occamy::transport {

FlowManager::FlowManager(net::Network* net, TransportConfig config)
    : net_(net), config_(config) {
  OCCAMY_CHECK(net != nullptr);
  OCCAMY_CHECK(config_.mss > 0);
  shard_state_.resize(static_cast<size_t>(net_->num_shards()));
}

void FlowManager::AttachHost(net::NodeId host_id) {
  host(host_id).set_receiver(
      [this, host_id](const Packet& pkt) { Dispatch(host_id, pkt); });
}

void FlowManager::AddCompletionListener(CompletionHook hook) {
  OCCAMY_CHECK(!net_->sharded())
      << "completion listeners race across shards; sharded runs derive "
         "workload stats from the merged completion records instead";
  completion_listeners_.push_back(std::move(hook));
}

uint64_t FlowManager::StartFlow(FlowParams params) {
  // Sharded runs pre-generate every flow (src/workload/pregen.h) before
  // RunUntil: starting one mid-run would mutate the connection map and a
  // foreign shard's event queue under the workers' feet.
  OCCAMY_CHECK(!net_->sharded_run_active())
      << "StartFlow during a sharded run; pre-generate the schedule instead";
  if (params.id == 0) params.id = net_->NextFlowId();
  OCCAMY_CHECK(params.id < net::Network::kOpenLoopFlowIdBase)
      << "flow id " << params.id << " is in the open-loop range";
  OCCAMY_CHECK(connections_.find(params.id) == connections_.end())
      << "duplicate flow id " << params.id;
  OCCAMY_CHECK(params.src != params.dst) << "flow to self";
  auto conn = std::make_unique<Connection>(this, params);
  Connection* ptr = conn.get();
  connections_.emplace(params.id, std::move(conn));
  mutable_counters().flows_started++;
  // The flow starts at its source host, so the start event belongs to the
  // source host's shard.
  sim::Simulator& src_sim = net_->sim_of(params.src);
  const Time start = std::max(params.start_time, src_sim.now());
  src_sim.At(start, [ptr] { ptr->Start(); });
  return params.id;
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

FlowManager::Counters& FlowManager::mutable_counters() {
  // Single-threaded mode takes slot 0 without the thread-local lookup —
  // this sits on the per-packet hot path (data/ack/retx counters).
  if (!net_->sharded()) return shard_state_[0].counters;
  return shard_state_[static_cast<size_t>(sim::CurrentShard())].counters;
}

Connection* FlowManager::FindConnection(uint64_t flow_id) {
  const auto it = connections_.find(flow_id);
  return it == connections_.end() ? nullptr : it->second.get();
}

void FlowManager::Dispatch(net::NodeId at_host, const Packet& pkt) {
  (void)at_host;
  Connection* conn = FindConnection(pkt.flow_id);
  if (conn == nullptr) return;  // stale packet of an already-completed flow
  if (pkt.IsAck()) {
    conn->HandleAck(pkt);
  } else {
    conn->HandleData(pkt);
  }
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
  mutable_counters().flows_completed++;
  if (net_->sharded()) {
    // Buffer per shard; the connection map stays immutable while shards run
    // (stale arrivals are benign thanks to the sender/receiver state split)
    // and the records are merged into canonical order after the run.
    shard_state_[static_cast<size_t>(sim::CurrentShard())].completions.Add(rec);
    return;
  }
  completions_.Add(rec);
  for (const auto& listener : completion_listeners_) listener(p, end_time);
  // Defer destruction: we are inside the connection's own call stack.
  const uint64_t id = p.id;
  sim().After(0, [this, id] { connections_.erase(id); });
}

void FlowManager::MergeShardCompletions() {
  std::vector<stats::CompletionRecord> merged;
  for (auto& s : shard_state_) {
    for (const auto& rec : s.completions.records()) merged.push_back(rec);
    s.completions.Clear();
  }
  std::sort(merged.begin(), merged.end(),
            [](const stats::CompletionRecord& a, const stats::CompletionRecord& b) {
              if (a.end != b.end) return a.end < b.end;
              return a.id < b.id;
            });
  for (const auto& rec : merged) completions_.Add(rec);
}

}  // namespace occamy::transport
