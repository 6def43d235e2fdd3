// Tracked perf + determinism gate for the partition-parallel fabric engine.
//
// Runs the alltoall fabric scenario twice — single shard, then N shards —
// through the shared gate harness (bench/common/parallel_gate.h):
// bit-identical metrics are a hard requirement (the engine's contract; a
// mismatch is a hard failure, not a slow run), and the wall-clock speedup
// lands in BENCH_core.json as fabric_parallel_speedup. The speedup only
// exceeds 1 on multi-core machines (CI's 4-core runners target >= 2x);
// `fabric_parallel_cores` records the hardware so the tracked ratio is
// interpretable.
#include <string>
#include <vector>

#include "bench/common/parallel_gate.h"
#include "src/exp/fabric_run.h"

namespace occamy::exp {
namespace {

struct BenchConfig {
  std::string scale = "default";
  double duration_ms = 5;
};

FabricRunSpec MakeSpec(const BenchConfig& cfg, int shards, int window_batch) {
  FabricRunSpec run;
  run.scheme = Scheme::kOccamy;
  run.pattern = BgPattern::kAllToAll;
  run.bg_load = 0.6;
  run.bg_fixed_size = 256 * 1024;
  run.duration = FromSeconds(cfg.duration_ms / 1000.0);
  run.seed = 1;
  run.scale = ScaleByName(cfg.scale).value_or(BenchScale::kDefault);
  run.shards = shards;
  run.window_batch = window_batch;
  return run;
}

// The deterministic fields that must match bit for bit between engines.
bool Identical(const FabricRunResult& a, const FabricRunResult& b, std::string& diff) {
  const auto check = [&](const char* name, double x, double y) {
    if (x != y && diff.empty()) {
      diff = std::string(name) + ": " + std::to_string(x) + " vs " + std::to_string(y);
    }
  };
  check("qct_avg_ms", a.qct_avg_ms, b.qct_avg_ms);
  check("qct_p99_ms", a.qct_p99_ms, b.qct_p99_ms);
  check("fct_avg_slow", a.fct_avg_slow, b.fct_avg_slow);
  check("fct_p99_slow", a.fct_p99_slow, b.fct_p99_slow);
  check("queries_completed", static_cast<double>(a.queries_completed),
        static_cast<double>(b.queries_completed));
  check("bg_flows_completed", static_cast<double>(a.bg_flows_completed),
        static_cast<double>(b.bg_flows_completed));
  check("drops", static_cast<double>(a.telemetry.drops), static_cast<double>(b.telemetry.drops));
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

  BenchConfig cfg;
  // --scale is this bench's extra flag; strip it before the shared parser.
  int pruned_argc = 1;
  std::vector<char*> pruned_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--scale=", 0) == 0) {
      cfg.scale = arg.substr(8);
    } else {
      pruned_argv.push_back(argv[i]);
      ++pruned_argc;
    }
  }
  ParallelGateOptions opts;
  if (!ParseParallelGateArgs(pruned_argc, pruned_argv.data(), opts,
                             "bench_fabric_parallel [--scale=S]",
                             [&] { cfg.duration_ms = 2; })) {
    return 2;
  }

  std::printf("== Fabric parallel engine: alltoall, %s scale, %.0f ms, %d shards ==\n",
              cfg.scale.c_str(), cfg.duration_ms, opts.shards);

  return RunParallelGate<FabricRunResult>(
      opts, "fabric_parallel",
      [&](int shards, int window_batch) {
        return RunFabric(MakeSpec(cfg, shards, window_batch));
      },
      Identical,
      [](const FabricRunResult& r, std::string& err) {
        if (r.bg_flows_completed == 0 || r.delivered_bytes == 0) {
          err = "no flows completed or bytes delivered";
          return false;
        }
        return true;
      },
      [](const FabricRunResult& r) { return r.telemetry.sim_events; },
      [](const FabricRunResult& r) { return r.telemetry.parallel_efficiency; },
      [](const FabricRunResult& r) { return r.telemetry.windows_run; });
}
