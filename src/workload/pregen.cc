#include "src/workload/pregen.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace occamy::workload {

std::vector<transport::FlowParams> PregeneratePoissonFlows(PoissonFlowConfig config) {
  OCCAMY_CHECK(!config.hosts.empty());
  OCCAMY_CHECK(config.load > 0.0);
  if (!config.pair_sampler) config.pair_sampler = DefaultPairSampler(config.hosts);
  const double mean_gap = static_cast<double>(MeanInterarrivalOf(config));

  std::vector<transport::FlowParams> out;
  Rng rng(config.seed);
  Time t = std::max<Time>(config.start, 0);
  // Per arrival: the pair, then the size, then the gap to the next arrival,
  // until `stop`.
  for (;;) {
    const auto [src, dst] = config.pair_sampler(rng);
    OCCAMY_CHECK(src != dst);
    transport::FlowParams params;
    params.src = src;
    params.dst = dst;
    params.size_bytes =
        std::max<int64_t>(1, static_cast<int64_t>(config.size_dist.Sample(rng)));
    params.traffic_class = config.traffic_class;
    params.cc = config.cc;
    params.start_time = t;
    if (config.ideal_fn) {
      params.ideal_duration = config.ideal_fn(src, dst, params.size_bytes);
    }
    out.push_back(params);

    const Time gap = static_cast<Time>(rng.Exponential(mean_gap)) + 1;
    t += gap;
    if (t > config.stop) break;
  }
  return out;
}

PregeneratedIncast PregenerateIncast(const IncastConfig& config) {
  OCCAMY_CHECK(!config.clients.empty());
  OCCAMY_CHECK(static_cast<int>(config.servers.size()) >= config.fanin)
      << "need at least fanin servers";
  OCCAMY_CHECK(config.fanin > 0);

  PregeneratedIncast out;
  out.query_size_bytes = config.query_size_bytes;
  Rng rng(config.seed);
  Time t = std::max<Time>(config.start, 0);
  uint64_t next_query_id = 1;
  // Per query: the client, then a partial shuffle picking `fanin` servers
  // other than the client, then the gap to the next query (until
  // max_queries or `stop`).
  for (;;) {
    const net::NodeId client = config.clients[rng.UniformInt(config.clients.size())];

    std::vector<net::NodeId> candidates;
    candidates.reserve(config.servers.size());
    for (net::NodeId s : config.servers) {
      if (s != client) candidates.push_back(s);
    }
    OCCAMY_CHECK(static_cast<int>(candidates.size()) >= config.fanin);
    for (int i = 0; i < config.fanin; ++i) {
      const size_t j = static_cast<size_t>(i) +
                       rng.UniformInt(candidates.size() - static_cast<size_t>(i));
      std::swap(candidates[static_cast<size_t>(i)], candidates[j]);
    }

    PregeneratedIncast::Query query;
    query.id = next_query_id++;
    query.client = client;
    query.issue_time = t;

    const int64_t per_flow =
        std::max<int64_t>(1, config.query_size_bytes / config.fanin);
    for (int i = 0; i < config.fanin; ++i) {
      transport::FlowParams params;
      params.src = candidates[static_cast<size_t>(i)];
      params.dst = client;
      params.size_bytes = per_flow;
      params.traffic_class = config.traffic_class;
      params.cc = config.cc;
      params.start_time = t;
      if (config.ideal_fn) {
        params.ideal_duration = config.ideal_fn(params.src, params.dst, per_flow);
      }
      query.flow_indices.push_back(out.flows.size());
      out.flows.push_back(params);
    }
    out.queries.push_back(std::move(query));

    if (config.max_queries > 0 &&
        static_cast<int64_t>(out.queries.size()) >= config.max_queries) {
      break;
    }
    const double mean_gap_s = 1.0 / config.queries_per_second;
    const Time gap = FromSeconds(rng.Exponential(mean_gap_s)) + 1;
    t += gap;
    if (t > config.stop) break;
  }
  return out;
}

std::vector<uint64_t> StartFlows(transport::FlowManager& manager,
                                 std::vector<transport::FlowParams> flows) {
  std::vector<uint64_t> ids;
  ids.reserve(flows.size());
  for (const auto& params : flows) ids.push_back(manager.StartFlow(params));
  return ids;
}

stats::CompletionCollector DeriveIncastQct(
    const PregeneratedIncast& incast, const std::vector<uint64_t>& flow_ids,
    const stats::CompletionCollector& flows,
    const std::function<Time(net::NodeId, int64_t)>& query_ideal_fn) {
  // Flow ids are dense from 1, so each flow's end time is indexed by id.
  constexpr Time kNotDone = -1;
  uint64_t max_id = 0;
  for (const uint64_t id : flow_ids) max_id = std::max(max_id, id);
  std::vector<Time> flow_end(max_id + 1, kNotDone);
  for (const auto& rec : flows.records()) {
    if (rec.id <= max_id) flow_end[rec.id] = rec.end;
  }
  stats::CompletionCollector qct;
  for (const auto& query : incast.queries) {
    Time end = 0;
    for (const size_t fi : query.flow_indices) {
      OCCAMY_CHECK(fi < flow_ids.size());
      const Time flow_done = flow_end[flow_ids[fi]];
      if (flow_done == kNotDone) {
        end = kNotDone;
        break;
      }
      end = std::max(end, flow_done);
    }
    if (end == kNotDone) continue;
    stats::CompletionRecord rec;
    rec.id = query.id;
    rec.bytes = incast.query_size_bytes;
    rec.start = query.issue_time;
    rec.end = end;
    if (query_ideal_fn) rec.ideal = query_ideal_fn(query.client, incast.query_size_bytes);
    qct.Add(rec);
  }
  qct.SortByEnd();
  return qct;
}

}  // namespace occamy::workload
