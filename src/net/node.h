// Base class for network nodes (hosts and switches).
#pragma once

#include <cstdint>
#include <vector>

#include "src/buffer/packet.h"

namespace occamy {
namespace sim {
class Simulator;
}  // namespace sim

namespace net {

class Network;

using NodeId = uint32_t;

class Node {
 public:
  virtual ~Node() = default;

  // Called by the network when a packet arrives on `in_port`.
  virtual void ReceivePacket(int in_port, Packet pkt) = 0;

  NodeId id() const { return id_; }
  Network* network() const { return network_; }

  // The simulator that runs this node's events: its owning shard's. Set by
  // Network::AddNode; all of a node's scheduling must go through it.
  sim::Simulator& sim() const { return *sim_; }

 private:
  friend class Network;
  NodeId id_ = 0;
  Network* network_ = nullptr;
  sim::Simulator* sim_ = nullptr;
  // Per-(source, lane) sequence of DeliverAfter calls: the key of the
  // fault draws and, counted from the lane's first delivery of the sending
  // window, part of a delivery's event order (see Network::DeliverAfter).
  // One slot per lane (plain nodes: just lane 0); only the node's own shard
  // bumps them, so they need no synchronization.
  struct Lane {
    uint64_t seq = 0;
    int64_t window = -1;       // the window of the lane's last delivery
    uint64_t window_base = 0;  // seq of its first delivery in that window
  };
  std::vector<Lane> lanes_ = std::vector<Lane>(1);
};

}  // namespace net
}  // namespace occamy
