// Open-loop packet injection (Pktgen-DPDK substitute for the P4 testbed
// experiments, Figs. 11-12): raw packets at a fixed rate with no congestion
// control, no retransmission, no ACKs.
#pragma once

#include <cstdint>

#include "src/net/host.h"
#include "src/net/network.h"
#include "src/sim/shard_checks.h"
#include "src/util/bandwidth.h"
#include "src/util/check.h"

namespace occamy::workload {

struct OpenLoopConfig {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  Bandwidth rate = Bandwidth::Gbps(10);  // injection rate
  int packet_bytes = 1500;
  Time start = 0;
  // Stop after `total_bytes` (if > 0) or at `stop` time, whichever first.
  int64_t total_bytes = 0;
  Time stop = 0;
  uint8_t traffic_class = 0;
  // Stamped on every packet (for drop accounting). Must lie in the range
  // net::Network reserves for open-loop streams, so no transport flow can
  // claim the same id.
  uint64_t flow_id = net::Network::kOpenLoopFlowIdBase;
};

class OpenLoopSender {
 public:
  // Everything the sender touches — its own counters, the source host's NIC
  // queue, the injection timer chain — lives on the source host's shard, so
  // open-loop injection is safe in sharded runs without pre-generation (it
  // is open loop: nothing outside the source shard feeds back into it).
  OpenLoopSender(net::Network* net, OpenLoopConfig config)
      : net_(net), sim_(&net->sim_of(config.src)), config_(config) {
    OCCAMY_CHECK(config_.flow_id >= net::Network::kOpenLoopFlowIdBase)
        << "open-loop flow id " << config_.flow_id << " is outside the open-loop range";
  }

  void Start() {
    sim_->At(std::max(config_.start, sim_->now()), [this] { InjectNext(); });
  }

  int64_t packets_sent() const { return packets_sent_; }
  int64_t bytes_sent() const { return bytes_sent_; }

 private:
  void InjectNext() {
    // Injection timers and counters are pinned to the source host's shard.
    OCCAMY_ASSERT_SHARD(*sim_);
    if (config_.total_bytes > 0 && bytes_sent_ >= config_.total_bytes) return;
    if (config_.stop > 0 && sim_->now() > config_.stop) return;
    Packet pkt;
    pkt.kind = PacketKind::kData;
    pkt.flow_id = config_.flow_id;
    pkt.src = config_.src;
    pkt.dst = config_.dst;
    pkt.size_bytes = static_cast<uint32_t>(config_.packet_bytes);
    pkt.traffic_class = config_.traffic_class;
    static_cast<net::Host&>(net_->node(config_.src)).Send(std::move(pkt));
    ++packets_sent_;
    bytes_sent_ += config_.packet_bytes;
    sim_->After(config_.rate.TxTime(config_.packet_bytes), [this] { InjectNext(); });
  }

  net::Network* net_;
  sim::Simulator* sim_;
  OpenLoopConfig config_;
  int64_t packets_sent_ = 0;
  int64_t bytes_sent_ = 0;
};

}  // namespace occamy::workload
