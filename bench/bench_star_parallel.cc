// Tracked perf + determinism gate for the intra-switch partition-parallel
// star engine.
//
// Runs a big multi-partition star (32 hosts, Tomahawk-style 8 ports per
// buffer partition -> 4 partitions = 4 lanes) under web-search background +
// incast queries twice — single shard, then N shards — through the shared
// gate harness (bench/common/parallel_gate.h): bit-identical metrics are a
// hard requirement, the wall-clock speedup lands in BENCH_core.json as
// star_parallel_speedup. Unlike the fabric bench this exercises *lane*
// sharding: the switch node itself is split along its TmPartitions, with
// each partition plus the hosts on its ports pinned to one shard. The
// speedup only exceeds 1 on multi-core machines; `star_parallel_cores`
// records the hardware so the tracked ratio is interpretable.
#include <string>

#include "bench/common/parallel_gate.h"
#include "src/exp/dpdk_run.h"

namespace occamy::exp {
namespace {

DpdkRunSpec MakeSpec(double duration_ms, int shards, int window_batch) {
  DpdkRunSpec run;
  run.scheme = Scheme::kOccamy;
  run.num_hosts = 32;
  run.ports_per_partition = 8;  // 4 partitions = 4 lanes to shard over
  // Per-partition buffer at the Tomahawk density: 5.12KB/port/Gbps x 8 x 10G.
  run.buffer_bytes = 410 * 1000;
  run.bg = DpdkRunSpec::Bg::kWebSearchDctcp;
  run.bg_load = 0.6;
  run.query_load = 0.02;
  run.duration = run.max_duration = FromSeconds(duration_ms / 1000.0);
  run.min_queries = 0;
  run.seed = 1;
  run.scale = BenchScale::kDefault;  // explicit: ignore OCCAMY_BENCH_SCALE
  run.shards = shards;
  run.window_batch = window_batch;
  return run;
}

// The deterministic fields that must match bit for bit between engines.
bool Identical(const DpdkRunResult& a, const DpdkRunResult& b, std::string& diff) {
  const auto check = [&](const char* name, double x, double y) {
    if (x != y && diff.empty()) {
      diff = std::string(name) + ": " + std::to_string(x) + " vs " + std::to_string(y);
    }
  };
  check("qct_avg_ms", a.qct_avg_ms, b.qct_avg_ms);
  check("qct_p99_ms", a.qct_p99_ms, b.qct_p99_ms);
  check("fct_avg_ms", a.fct_avg_ms, b.fct_avg_ms);
  check("fct_small_p99_ms", a.fct_small_p99_ms, b.fct_small_p99_ms);
  check("queries", static_cast<double>(a.queries), static_cast<double>(b.queries));
  check("rtos", static_cast<double>(a.rtos), static_cast<double>(b.rtos));
  check("drops", static_cast<double>(a.telemetry.drops),
        static_cast<double>(b.telemetry.drops));
  check("expelled", static_cast<double>(a.telemetry.expelled),
        static_cast<double>(b.telemetry.expelled));
  check("delivered_bytes", static_cast<double>(a.delivered_bytes),
        static_cast<double>(b.delivered_bytes));
  check("peak_occupancy_bytes", static_cast<double>(a.telemetry.peak_occupancy_bytes),
        static_cast<double>(b.telemetry.peak_occupancy_bytes));
  check("sim_events", static_cast<double>(a.telemetry.sim_events),
        static_cast<double>(b.telemetry.sim_events));
  return diff.empty();
}

}  // namespace
}  // namespace occamy::exp

int main(int argc, char** argv) {
  using namespace occamy::bench;
  using namespace occamy::exp;

  ParallelGateOptions opts;
  double duration_ms = 40;
  if (!ParseParallelGateArgs(argc, argv, opts, "bench_star_parallel",
                             [&] { duration_ms = 10; })) {
    return 2;
  }

  std::printf(
      "== Star intra-switch parallel engine: 32 hosts, 4 partitions, %.0f ms, "
      "%d shards ==\n",
      duration_ms, opts.shards);

  return RunParallelGate<DpdkRunResult>(
      opts, "star_parallel",
      [&](int shards, int window_batch) {
        return RunDpdk(MakeSpec(duration_ms, shards, window_batch));
      },
      Identical,
      [](const DpdkRunResult& r, std::string& err) {
        if (r.queries == 0 || r.delivered_bytes == 0) {
          err = "no queries or bytes delivered";
          return false;
        }
        return true;
      },
      [](const DpdkRunResult& r) { return r.telemetry.sim_events; },
      [](const DpdkRunResult& r) { return r.telemetry.parallel_efficiency; },
      [](const DpdkRunResult& r) { return r.telemetry.windows_run; });
}
