// Runner for the large-scale simulation experiments (§6.4): leaf-spine
// fabric + background traffic (web-search / all-to-all / all-reduce) +
// incast query traffic, reporting QCT/FCT slowdowns.
//
// One body (RunFabricOn) runs both engines. shards == 0 is the legacy
// single-threaded engine with live workload generators. shards >= 1 is the
// partition-parallel engine: arrivals are pre-generated, every flow start
// is bound to its source host's shard, and QCT/FCT metrics are derived from
// completion records merged in canonical order. Results are byte-identical
// for any shards >= 1 (see src/sim/sharded_simulator.h) but need not match
// the legacy engine (flow ids follow pre-generation order rather than
// arrival order).
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <type_traits>

#include "src/exp/fault_setup.h"
#include "src/exp/scenarios.h"
#include "src/exp/sharded_run.h"
#include "src/exp/telemetry.h"
#include "src/workload/collective.h"
#include "src/workload/pregen.h"

namespace occamy::exp {

enum class BgPattern { kWebSearch, kAllToAll, kAllReduce };

struct FabricRunSpec : RunSettings {
  Scheme scheme = Scheme::kDt;
  std::vector<double> alphas;  // empty = scheme default

  BgPattern pattern = BgPattern::kWebSearch;
  double bg_load = 0.9;         // fraction of aggregate host bandwidth
  int64_t bg_fixed_size = 0;    // for all-to-all / all-reduce sweeps
  transport::CcAlgorithm bg_cc = transport::CcAlgorithm::kDctcp;

  double query_size_frac_of_buffer = 0.4;  // of one buffer partition
  double query_load = 0.02;                // fraction of aggregate bandwidth
  int fanin = 16;

  double buffer_per_port_per_gbps = 5120.0;
  Time duration = 0;  // 0 = scale default
  Time drain = Milliseconds(40);
  // Explicit scale so parallel runs in one process never race on the
  // OCCAMY_BENCH_SCALE environment variable; nullopt falls back to the env.
  std::optional<BenchScale> scale;
};

struct FabricRunResult {
  double qct_avg_ms = 0, qct_p99_ms = 0;
  double qct_avg_slow = 0, qct_p99_slow = 0;
  double fct_avg_slow = 0, fct_p99_slow = 0;
  double fct_small_p99_slow = 0;
  int64_t queries_completed = 0;
  int64_t bg_flows_completed = 0;
  int64_t delivered_bytes = 0;  // application bytes of completed transfers
  int64_t buffer_bytes = 0;     // one leaf/spine partition
  double duration_ms = 0;       // traffic window (excludes the drain tail)
  double drain_ms = 0;          // drain tail simulated after the traffic window
  RunTelemetry telemetry;
};

inline Time DefaultFabricDuration(BenchScale scale) {
  switch (scale) {
    case BenchScale::kSmoke: return Milliseconds(10);
    case BenchScale::kDefault: return Milliseconds(20);
    case BenchScale::kFull: return Milliseconds(50);
  }
  return Milliseconds(20);
}

// Background traffic config shared by both engines.
inline workload::PoissonFlowConfig MakeFabricBgConfig(
    const FabricRunSpec& run, const std::vector<net::NodeId>& hosts,
    Bandwidth host_rate, Time duration, workload::IdealFn ideal_fn) {
  workload::PoissonFlowConfig bg;
  switch (run.pattern) {
    case BgPattern::kWebSearch:
      bg.hosts = hosts;
      bg.load = run.bg_load;
      bg.host_rate = host_rate;
      bg.size_dist = workload::WebSearchDistribution();
      break;
    case BgPattern::kAllToAll:
      // A zero flow size makes the Poisson arrival rate unbounded (the
      // generator spins forever emitting empty flows); fail loudly instead.
      OCCAMY_CHECK(run.bg_fixed_size > 0) << "all-to-all needs bg_fixed_size > 0";
      bg = workload::MakeAllToAllConfig(hosts, run.bg_load, host_rate,
                                        run.bg_fixed_size, 0, duration, run.seed + 17);
      break;
    case BgPattern::kAllReduce:
      OCCAMY_CHECK(run.bg_fixed_size > 0) << "all-reduce needs bg_fixed_size > 0";
      bg = workload::MakeAllReduceConfig(hosts, run.bg_load, host_rate,
                                         run.bg_fixed_size, 0, duration, run.seed + 17);
      break;
  }
  bg.cc = run.bg_cc;
  bg.stop = duration;
  bg.ideal_fn = std::move(ideal_fn);
  bg.seed = run.seed + 17;
  return bg;
}

// Incast query config shared by both engines.
inline workload::IncastConfig MakeFabricQueryConfig(
    const FabricRunSpec& run, const std::vector<net::NodeId>& hosts, int n_hosts,
    Bandwidth host_rate, int64_t buffer_per_partition, Time duration,
    workload::IdealFn ideal_fn,
    std::function<Time(net::NodeId, int64_t)> query_ideal_fn) {
  workload::IncastConfig q;
  q.clients = hosts;
  q.servers = hosts;
  q.fanin = std::min(run.fanin, n_hosts - 1);
  q.query_size_bytes = static_cast<int64_t>(run.query_size_frac_of_buffer *
                                            static_cast<double>(buffer_per_partition));
  const double aggregate = host_rate.bytes_per_sec() * n_hosts;
  q.queries_per_second =
      run.query_load * aggregate / static_cast<double>(q.query_size_bytes);
  q.stop = duration;
  q.ideal_fn = std::move(ideal_fn);
  q.query_ideal_fn = std::move(query_ideal_fn);
  q.seed = run.seed + 31;
  return q;
}

// QCT / FCT / volume metrics shared by both engines, so the two runners
// can never drift in metric definitions. `qct` holds one record per
// completed query; `flows` is the flow-completion collector; `bg_filter`
// selects background flow records.
inline void FillFabricCompletionMetrics(
    FabricRunResult& result, const stats::CompletionCollector& qct,
    const stats::CompletionCollector& flows,
    const stats::CompletionCollector::Filter& bg_filter) {
  const auto qct_ms = qct.DurationsMs();
  const auto qct_slow = qct.Slowdowns();
  result.qct_avg_ms = qct_ms.Mean();
  result.qct_p99_ms = qct_ms.P99();
  result.qct_avg_slow = qct_slow.Mean();
  result.qct_p99_slow = qct_slow.P99();
  result.queries_completed = static_cast<int64_t>(qct.Count());

  const auto bg_slow = flows.Slowdowns(bg_filter);
  result.fct_avg_slow = bg_slow.Mean();
  result.fct_p99_slow = bg_slow.P99();
  const auto small_filter = [&](const stats::CompletionRecord& r) {
    return bg_filter(r) && r.bytes < 100 * 1000;
  };
  result.fct_small_p99_slow = flows.Slowdowns(small_filter).P99();
  result.bg_flows_completed = flows.DurationsMs(bg_filter).Count();
  result.delivered_bytes = CollectDelivered(flows, result.telemetry);
}

inline FabricSpec MakeFabricSpec(const FabricRunSpec& run) {
  FabricSpec spec;
  spec.scheme = run.scheme;
  spec.alphas = run.alphas;
  spec.buffer_per_port_per_gbps = run.buffer_per_port_per_gbps;
  spec.seed = run.seed;
  spec.window_batch = run.window_batch;
  return spec;
}

// The fabric runner on either engine: `engine` is the scenario's
// sim::Simulator or sim::ShardedSimulator.
template <typename Scenario, typename Engine>
FabricRunResult RunFabricOn(const FabricRunSpec& run, BenchScale scale, Scenario& s,
                            Engine& engine) {
  std::optional<fault::FaultInjector> injector;
  ArmFaultsOrDie(injector, s.net, run.faults, FabricFaultTopology(s.topo));

  const Time duration = run.duration > 0 ? run.duration : DefaultFabricDuration(scale);
  const Bandwidth host_rate = s.topo.config.host_rate;
  const workload::PoissonFlowConfig bg =
      MakeFabricBgConfig(run, s.topo.hosts, host_rate, duration, s.IdealFn());
  const workload::IncastConfig q_cfg =
      MakeFabricQueryConfig(run, s.topo.hosts, s.topo.num_hosts(), host_rate,
                            s.buffer_per_partition, duration, s.IdealFn(), s.QueryIdealFn());

  FabricRunResult result;
  if constexpr (std::is_same_v<Engine, sim::ShardedSimulator>) {
    // Pre-generate both arrival processes (they are open loop: a pure
    // function of their Rng, identical for any shard count), then bind every
    // flow start to its source host's shard. Background flows get the low
    // contiguous id range, queries the next — the post-run filters key on
    // that.
    const auto bg_flows = workload::PregeneratePoissonFlows(bg);
    const workload::PregeneratedIncast incast = workload::PregenerateIncast(q_cfg);
    uint64_t bg_last_id = 0;
    for (const auto& params : bg_flows) bg_last_id = s.manager->StartFlow(params);
    std::vector<uint64_t> incast_flow_ids;
    incast_flow_ids.reserve(incast.flows.size());
    for (const auto& params : incast.flows) {
      incast_flow_ids.push_back(s.manager->StartFlow(params));
    }
    engine.RunUntil(duration + run.drain);
    s.manager->MergeShardCompletions();
    FillFabricCompletionMetrics(
        result,
        DeriveIncastQct(incast, incast_flow_ids, s.manager->completions(),
                        q_cfg.query_ideal_fn),
        s.manager->completions(), [bg_last_id](const stats::CompletionRecord& r) {
          return r.id >= 1 && r.id <= bg_last_id;
        });
  } else {
    // Live generators.
    workload::PoissonFlowGenerator bg_gen(s.manager.get(), bg);
    bg_gen.Start();
    workload::IncastWorkload incast(s.manager.get(), q_cfg);
    incast.Start();
    engine.RunUntil(duration + run.drain);
    FillFabricCompletionMetrics(
        result, incast.qct(), s.manager->completions(),
        [&bg_gen](const stats::CompletionRecord& r) { return bg_gen.Owns(r.id); });
  }
  result.buffer_bytes = s.buffer_per_partition;
  result.duration_ms = ToMilliseconds(duration);
  result.drain_ms = ToMilliseconds(run.drain);
  CollectRunTelemetry(engine, s.net, injector, result.telemetry);
  return result;
}

inline FabricRunResult RunFabric(const FabricRunSpec& run) {
  const BenchScale scale = run.scale.value_or(GetBenchScale());
  if (run.shards >= 1) {
    ShardedFabricScenario s(MakeFabricSpec(run), scale, run.shards, run.shard_threads);
    return RunFabricOn(run, scale, s, s.ssim);
  }
  FabricScenario s(MakeFabricSpec(run), scale);
  return RunFabricOn(run, scale, s, s.sim);
}

}  // namespace occamy::exp
