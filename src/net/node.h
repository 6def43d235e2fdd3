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

  // The simulator that runs this node's events: the network's sole
  // Simulator in single-threaded mode, the owning shard's in sharded mode.
  // Set by Network::AddNode; all of a node's scheduling must go through it.
  sim::Simulator& sim() const { return *sim_; }

 private:
  friend class Network;
  NodeId id_ = 0;
  Network* network_ = nullptr;
  sim::Simulator* sim_ = nullptr;
  // Per-(source, lane) sequence of DeliverAfter calls: the key of the
  // fault draws on both engines and part of the canonical cross-shard merge
  // key (see Network::DeliverAfter). One slot per lane (plain nodes: just
  // lane 0); only the node's own shard bumps them, so the counters need no
  // synchronization.
  std::vector<uint64_t> lane_delivery_seq_ = {0};
};

}  // namespace net
}  // namespace occamy
