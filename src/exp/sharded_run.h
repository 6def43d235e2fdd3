// Helpers shared by the partition-parallel (sharded-engine) runners.
//
// Sharded runs pre-generate their workloads (src/workload/pregen.h) and
// derive workload-level statistics from the canonically merged completion
// records after the run — the live completion-listener machinery is a
// single-threaded-mode feature. These helpers keep the star and fabric
// runners from drifting apart in how they do that derivation.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "src/stats/completion_stats.h"
#include "src/workload/pregen.h"

namespace occamy::exp {

// Post-run QCT derivation: a query completes when its last member flow
// does. The live engine counts down a completion listener; here the same
// statistic falls out of the merged records. `flow_ids[i]` is the flow id
// FlowManager assigned to `incast.flows[i]`; `flows` must already be merged
// into canonical order (FlowManager::MergeShardCompletions). Returns one
// record per completed query, added in canonical (end, id) order so
// downstream percentile math is byte-identical for any shard count.
inline stats::CompletionCollector DeriveIncastQct(
    const workload::PregeneratedIncast& incast, const std::vector<uint64_t>& flow_ids,
    const stats::CompletionCollector& flows,
    const std::function<Time(net::NodeId, int64_t)>& query_ideal_fn) {
  std::unordered_map<uint64_t, Time> flow_end;
  flow_end.reserve(flows.records().size());
  for (const auto& rec : flows.records()) flow_end[rec.id] = rec.end;

  struct QueryDone {
    Time end = 0;
    uint64_t id = 0;
    net::NodeId client = 0;
    Time issue_time = 0;
  };
  std::vector<QueryDone> done;
  for (const auto& query : incast.queries) {
    Time end = 0;
    bool complete = true;
    for (const size_t fi : query.flow_indices) {
      const auto it = flow_end.find(flow_ids[fi]);
      if (it == flow_end.end()) {
        complete = false;
        break;
      }
      end = std::max(end, it->second);
    }
    if (complete) done.push_back({end, query.id, query.client, query.issue_time});
  }
  // Canonical order (matches the collector merge): completion time, then id.
  std::sort(done.begin(), done.end(), [](const QueryDone& a, const QueryDone& b) {
    if (a.end != b.end) return a.end < b.end;
    return a.id < b.id;
  });
  stats::CompletionCollector qct;
  for (const auto& query : done) {
    stats::CompletionRecord rec;
    rec.id = query.id;
    rec.bytes = incast.query_size_bytes;
    rec.start = query.issue_time;
    rec.end = query.end;
    if (query_ideal_fn) {
      rec.ideal = query_ideal_fn(query.client, incast.query_size_bytes);
    }
    qct.Add(rec);
  }
  return qct;
}

}  // namespace occamy::exp
