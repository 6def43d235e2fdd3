// FlowManager: the per-network transport layer.
//
// Registers every flow, installs the receive demultiplexer on each host,
// and records flow completions (FCT + slowdown). The lifecycle:
//  * StartFlow records the flow's FlowParams in a table indexed by its id
//    (ids are dense from 1) and queues the flow on its source host's start
//    chain. A chain keeps one pending event; it starts one flow per event,
//    in (start_time, id) order, creating the flow's Connection there, and
//    then arms the host's next start. A chain is armed only by StartFlow
//    and by its own host's events, so its place in the event order is the
//    same for any shard count.
//  * Completion records go to the completing shard's slot; completions()
//    merges them in (end, id) order.
//  * A completed flow's Connection is freed outside its own call stack, at
//    the engine's next barrier (the destination shard may still be handling
//    a segment of the flow in the same window): after each window on
//    several shards, after each batch of up to 16 windows on one. The free
//    schedules no event.
//  * A data segment of a finished flow gets the cumulative ACK for the
//    whole flow, built from its FlowParams — what the receiver half sends
//    while the connection lives, so the moment of the free is invisible.
//    ACKs of finished flows and packets with no flow record (open-loop
//    streams) are dropped.
//
// Runs register every flow before RunUntil: StartFlow would otherwise
// resize the tables and arm a foreign shard's queue under the workers'
// feet.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/net/host.h"
#include "src/net/network.h"
#include "src/sim/event_queue.h"
#include "src/stats/completion_stats.h"
#include "src/transport/connection.h"
#include "src/transport/flow.h"

namespace occamy::transport {

class FlowManager {
 public:
  // Adds the connection release to `net`'s window barrier, so the manager
  // must outlive the engine's last run.
  explicit FlowManager(net::Network* net, TransportConfig config = {});

  FlowManager(const FlowManager&) = delete;
  FlowManager& operator=(const FlowManager&) = delete;

  // Installs this manager as the receiver on `host_id`. Topology builders
  // create hosts; call this for every host that terminates flows.
  void AttachHost(net::NodeId host_id);

  // Registers a flow and queues its start (at params.start_time, or now if
  // that has passed) on its source host's start chain. params.id must be 0
  // or the next dense id; the assigned id is returned.
  uint64_t StartFlow(FlowParams params);

  // Completion records in (end, id) order: merges the records collected
  // since the last call. Call between runs, never during one.
  const stats::CompletionCollector& completions();

  const TransportConfig& config() const { return config_; }
  net::Network& network() { return *net_; }
  net::Host& host(net::NodeId id) { return static_cast<net::Host&>(net_->node(id)); }

  // Aggregate transport counters.
  struct Counters {
    int64_t flows_started = 0;
    int64_t flows_completed = 0;
    int64_t data_packets_sent = 0;
    int64_t retransmitted_packets = 0;
    int64_t acks_sent = 0;
    int64_t rtos = 0;
    int64_t fast_retransmits = 0;
  };
  // Summed across shards (integer sums: order-independent, deterministic).
  Counters counters() const;

  // The flow's live connection: null before its start event and once the
  // completed connection is freed.
  Connection* FindConnection(uint64_t flow_id);

 private:
  friend class Connection;

  // One flow waiting on its source host's start chain.
  struct PendingStart {
    Time time = 0;
    uint64_t id = 0;
    // With std::greater, the heap functions keep the earliest (time, id) on top.
    bool operator>(const PendingStart& o) const {
      return time != o.time ? time > o.time : id > o.id;
    }
  };
  struct StartChain {
    std::vector<PendingStart> heap;  // min-heap on (time, id)
    sim::EventHandle armed;          // the chain's one pending start event
  };

  // Per-shard mutable slots, padded against false sharing.
  struct alignas(64) ShardState {
    Counters counters;
    stats::CompletionCollector completions;
    std::vector<uint64_t> finished;  // connections to free at the next barrier
  };

  // The slot of the shard executing on this thread.
  ShardState& slot();
  Counters& mutable_counters() { return slot().counters; }

  void ArmStartChain(net::NodeId host);
  void StartNext(net::NodeId host);
  void Dispatch(const Packet& pkt);
  // The receiver's cumulative ACK of data segment `pkt` of flow `p`,
  // acknowledging every byte below `ack_seq`.
  void SendAck(const FlowParams& p, const Packet& pkt, int64_t ack_seq);
  void OnConnectionComplete(Connection* conn, Time end_time);
  void FreeFinished(int shard);

  net::Network* net_;
  TransportConfig config_;
  std::vector<FlowParams> flows_;                         // by id; [0] unused
  std::vector<std::unique_ptr<Connection>> connections_;  // by id; null unless live
  std::vector<StartChain> chains_;                        // by source node id
  stats::CompletionCollector completions_;
  std::vector<ShardState> shard_state_;
};

}  // namespace occamy::transport
