// A network on a one-shard engine, for unit tests that build a topology and
// drive its nodes by hand. Every scenario runs on this engine
// (sim::ShardedSimulator); with one shard, nothing crosses a mailbox and
// each planned batch of windows runs straight through.
#pragma once

#include <cstdint>

#include "src/net/network.h"
#include "src/sim/sharded_simulator.h"
#include "src/util/time.h"

namespace occamy::testing {

struct OneShardNet {
  // `lookahead` is the topology's link propagation: every delivery carries
  // at least that delay.
  explicit OneShardNet(Time lookahead, uint64_t seed = 1)
      : engine({.shards = 1, .lookahead = lookahead, .seed = seed, .use_threads = false}),
        net(&engine, [](net::NodeId) { return 0; }),
        sim(engine.shard(0)) {}

  // Runs until no event is pending (the clock ends far in the future).
  void Run() { engine.RunUntil(Seconds(1000000)); }
  void RunUntil(Time until) { engine.RunUntil(until); }

  sim::ShardedSimulator engine;
  net::Network net;
  sim::Simulator& sim;  // the one shard: test events are scheduled here
};

}  // namespace occamy::testing
