// End host: a NIC with a FIFO transmit queue feeding one uplink.
//
// Transports (src/transport) push packets into the NIC queue; the NIC
// serializes them at line rate and the network delivers them after the link
// propagation delay. Received packets are handed to a registered receiver
// hook (the transport demultiplexer, or a bench's packet counter).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "src/net/network.h"
#include "src/net/node.h"
#include "src/util/bandwidth.h"

namespace occamy::net {

class Host final : public Node {
 public:
  // `tx_queue_limit_bytes` caps the NIC queue (0 = unlimited); the paper's
  // hosts push through the kernel stack where the NIC queue is ample.
  explicit Host(int64_t tx_queue_limit_bytes = 0) : tx_queue_limit_(tx_queue_limit_bytes) {}

  // Wires the uplink (done by topology builders).
  void ConnectUplink(LinkEnd peer, Bandwidth rate, Time propagation) {
    peer_ = peer;
    rate_ = rate;
    propagation_ = propagation;
    connected_ = true;
  }

  Bandwidth uplink_rate() const { return rate_; }
  bool connected() const { return connected_; }
  // The far end of the uplink (fault::FaultInjector resolves host links).
  LinkEnd uplink_peer() const { return peer_; }

  // Queues a packet for transmission. Returns false if the NIC queue
  // overflowed (packet dropped).
  bool Send(Packet pkt) {
    OCCAMY_ASSERT_SHARD(sim());  // NIC queue/timers belong to this host's shard
    OCCAMY_CHECK(connected_) << "host " << id() << " has no uplink";
    if (tx_queue_limit_ > 0 && tx_queue_bytes_ + pkt.size_bytes > tx_queue_limit_) {
      ++tx_drops_;
      return false;
    }
    tx_queue_bytes_ += pkt.size_bytes;
    tx_queue_.push_back(std::move(pkt));
    StartTxIfIdle();
    return true;
  }

  void ReceivePacket(int in_port, Packet pkt) override {
    (void)in_port;
    OCCAMY_ASSERT_SHARD(sim());
    ++rx_packets_;
    rx_bytes_ += pkt.size_bytes;
    if (receiver_) receiver_(pkt);
  }

  // The upcall for received packets (transport demux or bench counter).
  void set_receiver(std::function<void(const Packet&)> hook) { receiver_ = std::move(hook); }

  int64_t tx_queue_bytes() const { return tx_queue_bytes_; }
  int64_t tx_drops() const { return tx_drops_; }
  int64_t rx_packets() const { return rx_packets_; }
  int64_t rx_bytes() const { return rx_bytes_; }

 private:
  void StartTxIfIdle() {
    if (tx_busy_ || tx_queue_.empty()) return;
    tx_busy_ = true;
    Packet pkt = std::move(tx_queue_.front());
    tx_queue_.pop_front();
    tx_queue_bytes_ -= pkt.size_bytes;
    const Time tx_time = rate_.TxTime(pkt.size_bytes);
    auto tx_done = [this, p = std::move(pkt)]() mutable {
      network()->DeliverAfter(id(), propagation_, peer_, std::move(p));
      tx_busy_ = false;
      StartTxIfIdle();
    };
    static_assert(sim::Callback::FitsInline<decltype(tx_done)>(),
                  "the host TX closure must not allocate");
    sim().After(tx_time, std::move(tx_done));
  }

  LinkEnd peer_;
  Bandwidth rate_;
  Time propagation_ = 0;
  bool connected_ = false;

  // A std::deque on purpose: it refills one 512-byte block every 8 sends
  // (at most ~0.04 allocations per event) and frees drained blocks, so an
  // idle host holds almost nothing. Both replacements tried grew the
  // star_scheme_grid benchmark's peak RSS (7.3-8.3 MiB with the deque): a
  // per-host power-of-two ring read 9.1-11.0 MiB even when a drained ring
  // gave capacity back, and a thread-shared free list of 8-packet blocks
  // 8.1-9.3 MiB.
  std::deque<Packet> tx_queue_;
  int64_t tx_queue_bytes_ = 0;
  int64_t tx_queue_limit_;
  bool tx_busy_ = false;

  int64_t tx_drops_ = 0;
  int64_t rx_packets_ = 0;
  int64_t rx_bytes_ = 0;

  std::function<void(const Packet&)> receiver_;
};

}  // namespace occamy::net
