// Runner for the DPDK-software-switch experiments (§6.2, §6.3): 8 hosts x
// 10G around one 410KB shared-buffer switch, DCTCP query (incast) traffic
// plus a configurable background, reporting QCT / FCT statistics.
//
// The star runs on one shard of the partition-parallel engine
// (StarScenario). The Poisson and incast arrivals are pre-generated and
// registered before the run, the saturating-LP streams inject live, and QCT
// is derived from the merged completion records.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/exp/fault_setup.h"
#include "src/exp/scenarios.h"
#include "src/exp/telemetry.h"
#include "src/workload/flow_size_dist.h"
#include "src/workload/open_loop.h"
#include "src/workload/pregen.h"

namespace occamy::exp {

struct DpdkRunSpec : RunSettings {
  Scheme scheme = Scheme::kDt;
  std::vector<double> alphas;  // per class; empty = scheme default
  int queues_per_port = 1;
  tm::SchedulerKind scheduler = tm::SchedulerKind::kFifo;
  int64_t buffer_bytes = 410 * 1000;  // 5.12KB/port/Gbps x 8 x 10G

  enum class Bg {
    kNone,
    kWebSearchDctcp,  // §6.2 burst absorption: same queue as queries
    kWebSearchCubic,  // §6.2 isolation: separate CUBIC queue
    kSaturatingLp,    // §6.2 choking: LP streams pinning the client's port
  };
  Bg bg = Bg::kWebSearchDctcp;
  double bg_load = 0.5;
  uint8_t bg_tc = 0;

  int64_t query_bytes = 200 * 1000;
  double query_load = 0.01;
  uint8_t query_tc = 0;

  Time duration = Milliseconds(150);
  Time max_duration = Milliseconds(450);
  int min_queries = 60;
  // Explicit scale so parallel runs in one process never race on the
  // OCCAMY_BENCH_SCALE environment variable; nullopt falls back to the env.
  std::optional<BenchScale> scale;
};

struct DpdkRunResult {
  double qct_avg_ms = 0, qct_p99_ms = 0;
  double fct_avg_ms = 0, fct_small_p99_ms = 0;
  int64_t queries = 0;
  int64_t rtos = 0;
  int64_t delivered_bytes = 0;  // application bytes of completed transfers
  int64_t buffer_bytes = 0;
  double duration_ms = 0;  // traffic window (excludes the drain tail)
  double drain_ms = 0;     // drain tail simulated after the traffic window
  RunTelemetry telemetry;
};

// ---------------- config ----------------

inline StarSpec MakeDpdkStarSpec(const DpdkRunSpec& run) {
  StarSpec star;
  star.host_rate = Bandwidth::Gbps(10);
  star.buffer_bytes = run.buffer_bytes;
  star.ecn_threshold_bytes = 65 * 1500;  // 65 packets (§6.2)
  star.queues_per_port = run.queues_per_port;
  star.scheduler = run.scheduler;
  star.scheme = run.scheme;
  star.alphas = run.alphas;
  star.seed = run.seed;
  return star;
}

inline double DpdkQueriesPerSecond(const DpdkRunSpec& run, const StarSpec& star) {
  const double aggregate = star.host_rate.bytes_per_sec() * star.num_hosts;
  return run.query_load * aggregate / static_cast<double>(run.query_bytes);
}

inline Time DpdkDuration(const DpdkRunSpec& run, const StarSpec& star,
                         BenchScale scale) {
  const double qps = DpdkQueriesPerSecond(run, star);
  Time duration = run.duration;
  const Time needed = FromSeconds(static_cast<double>(run.min_queries) / qps);
  duration = std::clamp(needed, duration, run.max_duration);
  if (scale == BenchScale::kSmoke) duration = std::min(duration, Milliseconds(20));
  return duration;
}

inline workload::PoissonFlowConfig MakeDpdkBgConfig(
    const DpdkRunSpec& run, const std::vector<net::NodeId>& hosts, Bandwidth host_rate,
    Time duration, workload::IdealFn ideal_fn) {
  workload::PoissonFlowConfig bg;
  bg.hosts = hosts;
  bg.load = run.bg_load;
  bg.host_rate = host_rate;
  bg.size_dist = workload::WebSearchDistribution();
  bg.traffic_class = run.bg_tc;
  bg.cc = run.bg == DpdkRunSpec::Bg::kWebSearchCubic ? transport::CcAlgorithm::kCubic
                                                     : transport::CcAlgorithm::kDctcp;
  bg.stop = duration;
  bg.ideal_fn = std::move(ideal_fn);
  bg.seed = run.seed + 17;
  return bg;
}

// Saturating low-priority streams into the query client's port, spread
// over the LP classes. They stand in for the paper's kernel-CUBIC
// low-priority flows, which hold their queues full with SACK; this
// transport has no SACK and could not.
inline std::vector<workload::OpenLoopConfig> MakeDpdkLpConfigs(
    const DpdkRunSpec& run, const std::vector<net::NodeId>& hosts, Time duration) {
  // The choking layout pins hosts 6/7 as the LP sources (§6.2's fixed
  // 8-host testbed); a smaller custom star would index out of bounds.
  OCCAMY_CHECK(hosts.size() >= 8) << "saturating-LP background needs >= 8 hosts";
  const int lp_classes = std::max(1, run.queues_per_port - 1);
  const int streams = std::max(7, lp_classes);
  std::vector<workload::OpenLoopConfig> configs;
  configs.reserve(static_cast<size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    workload::OpenLoopConfig cfg;
    cfg.src = hosts[static_cast<size_t>(6 + (i % 2))];
    cfg.dst = hosts[0];
    cfg.rate = Bandwidth::Mbps(static_cast<int64_t>(
        run.bg_load * 10000.0 * 1.2 / streams));  // 1.2x oversubscription
    cfg.traffic_class = static_cast<uint8_t>(1 + (i % lp_classes));
    cfg.flow_id = net::Network::kOpenLoopFlowIdBase + static_cast<uint64_t>(i);
    cfg.stop = duration + Milliseconds(50);
    configs.push_back(cfg);
  }
  return configs;
}

// Starts the saturating-LP streams on `s`. Open loop is shard-confined, so
// they inject live.
inline std::vector<std::unique_ptr<workload::OpenLoopSender>> StartDpdkLpStreams(
    const DpdkRunSpec& run, StarScenario& s, Time duration) {
  std::vector<std::unique_ptr<workload::OpenLoopSender>> senders;
  for (const auto& cfg : MakeDpdkLpConfigs(run, s.topo.hosts, duration)) {
    senders.push_back(std::make_unique<workload::OpenLoopSender>(&s.net, cfg));
    senders.back()->Start();
  }
  return senders;
}

inline workload::IncastConfig MakeDpdkQueryConfig(
    const DpdkRunSpec& run, const std::vector<net::NodeId>& hosts, const StarSpec& star,
    Time duration, workload::IdealFn ideal_fn,
    std::function<Time(net::NodeId, int64_t)> query_ideal_fn) {
  workload::IncastConfig q;
  if (run.bg == DpdkRunSpec::Bg::kSaturatingLp) {
    q.clients = {hosts[0]};  // the choked port
  } else {
    q.clients = hosts;
  }
  // 16 responders: two per non-client host (§6.2: "each host runs 2").
  for (int rep = 0; rep < 2; ++rep) {
    for (auto h : hosts) q.servers.push_back(h);
  }
  q.fanin = std::min(14, 2 * (star.num_hosts - 1));
  q.query_size_bytes = run.query_bytes;
  q.queries_per_second = DpdkQueriesPerSecond(run, star);
  q.traffic_class = run.query_tc;
  q.start = Milliseconds(5);  // let the background establish itself
  q.stop = duration;
  q.ideal_fn = std::move(ideal_fn);
  q.query_ideal_fn = std::move(query_ideal_fn);
  q.seed = run.seed + 31;
  return q;
}

// RTO tails drained after the traffic window.
inline Time DpdkDrain() { return Milliseconds(300); }

// QCT / FCT / volume metrics. `bg_filter` selects the background flows
// among the completion records.
inline void FillDpdkCompletionMetrics(
    DpdkRunResult& result, const stats::CompletionCollector& qct,
    const stats::CompletionCollector& flows, bool have_bg,
    const stats::CompletionCollector::Filter& bg_filter) {
  result.qct_avg_ms = qct.DurationsMs().Mean();
  result.qct_p99_ms = qct.DurationsMs().P99();
  result.queries = static_cast<int64_t>(qct.Count());
  if (have_bg) {
    result.fct_avg_ms = flows.DurationsMs(bg_filter).Mean();
    const auto small = [&](const stats::CompletionRecord& r) {
      return bg_filter(r) && r.bytes < 100 * 1000;
    };
    result.fct_small_p99_ms = flows.DurationsMs(small).P99();
  }
  result.delivered_bytes = CollectDelivered(flows, result.telemetry);
}

inline DpdkRunResult RunDpdk(const DpdkRunSpec& run) {
  const StarSpec star = MakeDpdkStarSpec(run);
  StarScenario s(star);
  const Time duration = DpdkDuration(run, star, run.scale.value_or(GetBenchScale()));
  std::optional<fault::FaultInjector> injector;
  ArmFaultsOrDie(injector, s.net, run.faults, StarFaultTopology(s.topo));

  std::vector<std::unique_ptr<workload::OpenLoopSender>> lp_senders;
  if (run.bg == DpdkRunSpec::Bg::kSaturatingLp) lp_senders = StartDpdkLpStreams(run, s, duration);
  std::optional<workload::PoissonFlowConfig> bg;
  if (run.bg == DpdkRunSpec::Bg::kWebSearchDctcp ||
      run.bg == DpdkRunSpec::Bg::kWebSearchCubic) {
    bg = MakeDpdkBgConfig(run, s.topo.hosts, star.host_rate, duration, s.IdealFn());
  }
  const workload::IncastConfig q_cfg = MakeDpdkQueryConfig(
      run, s.topo.hosts, star, duration, s.IdealFn(),
      [&s](net::NodeId, int64_t bytes) { return s.IdealFct(bytes); });

  // Pre-generated arrivals. Background flows take the low contiguous id
  // range the post-run filter keys on; QCT is derived from the merged
  // completion records.
  uint64_t bg_last_id = 0;
  if (bg) {
    bg_last_id =
        workload::StartFlows(*s.manager, workload::PregeneratePoissonFlows(*bg)).back();
  }
  workload::PregeneratedIncast incast = workload::PregenerateIncast(q_cfg);
  // The manager keeps the flows; after the run only the queries are read.
  const std::vector<uint64_t> incast_ids =
      workload::StartFlows(*s.manager, std::move(incast.flows));
  s.ssim.RunUntil(duration + DpdkDrain());
  const stats::CompletionCollector& flows = s.manager->completions();
  DpdkRunResult result;
  FillDpdkCompletionMetrics(
      result, workload::DeriveIncastQct(incast, incast_ids, flows, q_cfg.query_ideal_fn),
      flows, bg_last_id > 0,
      [bg_last_id](const stats::CompletionRecord& r) { return r.id <= bg_last_id; });
  result.rtos = s.manager->counters().rtos;
  result.buffer_bytes = run.buffer_bytes;
  result.duration_ms = ToMilliseconds(duration);
  result.drain_ms = ToMilliseconds(DpdkDrain());
  CollectRunTelemetry(s.ssim, s.net, injector, result.telemetry);
  return result;
}

}  // namespace occamy::exp
