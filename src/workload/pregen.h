// Pre-generated workload schedules for the sharded fabric engine.
//
// The Poisson background and incast query arrival processes are open loop:
// every arrival time, endpoint pair, and size is a function of the workload
// Rng alone, with no feedback from the simulation. That makes the whole
// schedule computable up front — which is exactly what partition-parallel
// execution needs: every flow start can be bound to its source host's shard
// before the run, so no workload object mutates shared state while shards
// execute concurrently. Query completion times (QCT) are then derived after
// the run from the merged flow-completion records (see src/exp/
// fabric_run.h), replacing the live completion-listener countdown.
//
// Draw order mirrors the live generators exactly (pair/client first, then
// sizes, then the next-arrival gap), so a given config yields the same
// arrival schedule whichever path consumes it.
#pragma once

#include <cstdint>
#include <vector>

#include "src/transport/flow.h"
#include "src/workload/incast.h"
#include "src/workload/poisson_flows.h"

namespace occamy::workload {

// Expands a Poisson flow config into its full arrival schedule, in arrival
// order. Flow ids are left 0 (assigned by FlowManager::StartFlow).
std::vector<transport::FlowParams> PregeneratePoissonFlows(PoissonFlowConfig config);

// An incast query workload expanded into per-query flow lists.
struct PregeneratedIncast {
  struct Query {
    uint64_t id = 0;
    net::NodeId client = 0;
    Time issue_time = 0;
    // Indices into `flows` of this query's member response flows.
    std::vector<size_t> flow_indices;
  };
  std::vector<Query> queries;                  // in issue order
  std::vector<transport::FlowParams> flows;    // all member flows, issue order
  int64_t query_size_bytes = 0;
};

PregeneratedIncast PregenerateIncast(const IncastConfig& config);

}  // namespace occamy::workload
