// Pre-generated workload schedules: the one workload path of every run.
//
// The Poisson background and incast query arrival processes are open loop:
// every arrival time, endpoint pair, and size is a function of the workload
// Rng alone, with no feedback from the simulation. So a run expands its
// whole schedule up front, hands every flow to FlowManager::StartFlow
// before RunUntil (each flow then starts from its source host's start
// chain), and derives query completion times (QCT) after the run from the
// merged flow-completion records. No workload object runs during the run,
// so nothing mutates shared state while shards execute concurrently.
//
// Each generator draws in a fixed order per arrival (pair or client first,
// then sizes or servers, then the next-arrival gap), so a config and seed
// always yield the same schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/stats/completion_stats.h"
#include "src/transport/flow.h"
#include "src/transport/flow_manager.h"
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

// Starts every flow of `flows` on `manager`, in order; returns their ids.
// The manager keeps its own copy of each flow's FlowParams, so a caller
// done with the schedule can move it in and free it here.
std::vector<uint64_t> StartFlows(transport::FlowManager& manager,
                                 std::vector<transport::FlowParams> flows);

// Post-run QCT: a query completes when its last member flow does.
// `flow_ids[i]` is the id StartFlows assigned to the schedule's flows[i]
// (reads only `incast.queries`, so the flows may have been moved into
// StartFlows); `flows` holds the completion records
// (FlowManager::completions()). Returns one record per completed query, in
// (end, id) order, with its ideal duration from `query_ideal_fn` when given.
stats::CompletionCollector DeriveIncastQct(
    const PregeneratedIncast& incast, const std::vector<uint64_t>& flow_ids,
    const stats::CompletionCollector& flows,
    const std::function<Time(net::NodeId, int64_t)>& query_ideal_fn);

}  // namespace occamy::workload
