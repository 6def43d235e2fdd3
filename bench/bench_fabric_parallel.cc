// Tracked perf + determinism gate for the partition-parallel fabric engine.
//
// Runs the alltoall fabric scenario three ways: single shard at the legacy
// one-window-per-drain schedule (the oracle), N shards at the requested
// --window-batch (the timed configuration), and, when batching is on, N
// shards at batch=1 (the barrier-round reference). Bit-identical metrics
// are a hard requirement (the engine's contract; a mismatch is a hard
// failure, not a slow run), as are a non-empty run and strictly fewer
// barrier rounds from batching. The wall-clock speedup is reported and
// optionally gated against an absolute or per-core floor, enforced only
// when the machine has at least `shards` hardware threads (a 1-core box can
// only validate determinism). --json= writes the flat fabric_parallel_*
// dictionary kept in BENCH_core.json; `fabric_parallel_cores` records the
// hardware so the speedup is interpretable.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "bench/common/parallel_gate.h"
#include "bench/common/table.h"
#include "src/exp/fabric_run.h"
#include "src/util/json.h"

namespace occamy::exp {
namespace {

using bench::ParallelGateOptions;
using bench::Table;

int DurationMs(const ParallelGateOptions& opts) { return opts.quick ? 2 : 5; }

FabricRunResult Run(const ParallelGateOptions& opts, int shards, int window_batch) {
  FabricRunSpec run;
  run.scheme = Scheme::kOccamy;
  run.pattern = BgPattern::kAllToAll;
  run.bg_load = 0.6;
  run.bg_fixed_size = 256 * 1024;
  run.duration = Milliseconds(DurationMs(opts));
  run.seed = 1;
  run.scale = opts.scale;
  run.shards = shards;
  run.window_batch = window_batch;
  return RunFabric(run);
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

// Returns the process exit code.
int Gate(const ParallelGateOptions& opts) {
  using Clock = std::chrono::steady_clock;
  const auto ms_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };

  // Best-of-2 wall times ride out machine noise; --quick times once.
  double serial_ms = 1e300, parallel_ms = 1e300;
  FabricRunResult serial, parallel;
  double best_efficiency = 0;
  for (int r = 0; r < (opts.quick ? 1 : 2); ++r) {
    const Clock::time_point t0 = Clock::now();
    serial = Run(opts, 1, 1);  // the legacy single-shard oracle
    const Clock::time_point t1 = Clock::now();
    parallel = Run(opts, opts.shards, opts.window_batch);
    const Clock::time_point t2 = Clock::now();
    serial_ms = std::min(serial_ms, ms_between(t0, t1));
    if (ms_between(t1, t2) < parallel_ms) {
      parallel_ms = ms_between(t1, t2);
      best_efficiency = parallel.telemetry.parallel_efficiency;
    }
  }

  std::string diff;
  if (!Identical(serial, parallel, diff)) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: shards=1 vs shards=%d metrics differ (%s)\n",
                 opts.shards, diff.c_str());
    return 1;
  }
  if (serial.bg_flows_completed == 0 || serial.delivered_bytes == 0) {
    std::fprintf(stderr, "EMPTY RUN: no flows completed or bytes delivered\n");
    return 1;
  }

  // Window-batching leg: when the timed configuration batches (anything but
  // the fixed batch=1 schedule), run the same sharded configuration at
  // batch=1 once and require (a) byte-identical metrics and (b) strictly
  // fewer barrier rounds from batching — the whole point of the policy.
  const uint64_t parallel_windows = parallel.telemetry.windows_run;
  uint64_t batch1_windows = parallel_windows;
  if (opts.window_batch != 1) {
    const FabricRunResult reference = Run(opts, opts.shards, 1);
    if (!Identical(serial, reference, diff)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: window_batch=1 reference differs (%s)\n",
                   diff.c_str());
      return 1;
    }
    batch1_windows = reference.telemetry.windows_run;
    if (parallel_windows >= batch1_windows) {
      const std::string batch_label =
          opts.window_batch == 0 ? "auto" : std::to_string(opts.window_batch);
      std::fprintf(stderr,
                   "WINDOW BATCHING REGRESSION: %llu barrier rounds at "
                   "window_batch=%s vs %llu at batch=1 (want strictly fewer)\n",
                   static_cast<unsigned long long>(parallel_windows),
                   batch_label.c_str(),
                   static_cast<unsigned long long>(batch1_windows));
      return 1;
    }
  }

  const double speedup = serial_ms / parallel_ms;
  const int64_t events = serial.telemetry.sim_events;
  const double serial_eps = static_cast<double>(events) / serial_ms * 1e3;
  const double parallel_eps = static_cast<double>(events) / parallel_ms * 1e3;
  const unsigned cores = std::thread::hardware_concurrency();

  Table table({"Engine", "wall ms", "events/s", "speedup"});
  table.AddRow({"single shard", Table::Fmt("%.1f", serial_ms),
                Table::Fmt("%.3g", serial_eps), "1.00x"});
  table.AddRow({Table::Fmt("%d shards", opts.shards), Table::Fmt("%.1f", parallel_ms),
                Table::Fmt("%.3g", parallel_eps), Table::Fmt("%.2fx", speedup)});
  table.Print();
  std::printf("metrics bit-identical across engines; %llu events; %u cores; "
              "parallel efficiency %.2f; %llu barrier rounds (batch=1: %llu)\n",
              static_cast<unsigned long long>(events), cores, best_efficiency,
              static_cast<unsigned long long>(parallel_windows),
              static_cast<unsigned long long>(batch1_windows));

  double required = opts.min_speedup;
  if (opts.min_speedup_per_core > 0) {
    const double per_core =
        opts.min_speedup_per_core *
        static_cast<double>(std::min<unsigned>(cores, static_cast<unsigned>(opts.shards)));
    required = std::max(required, per_core);
  }
  if (required > 0 && cores >= static_cast<unsigned>(opts.shards) &&
      speedup < required) {
    std::fprintf(stderr,
                 "PARALLEL SPEEDUP REGRESSION: %.2fx < required %.2fx "
                 "(%d shards on %u cores)\n",
                 speedup, required, opts.shards, cores);
    return 1;
  }

  if (!opts.json_path.empty()) {
    JsonBuilder json;
    json.Add("fabric_parallel_shards", int64_t{opts.shards});
    json.Add("fabric_parallel_cores", static_cast<int64_t>(cores));
    json.Add("fabric_parallel_sim_events", events);
    json.Add("fabric_parallel_serial_wall_ms", serial_ms);
    json.Add("fabric_parallel_wall_ms", parallel_ms);
    json.Add("fabric_parallel_serial_events_per_sec", serial_eps);
    json.Add("fabric_parallel_events_per_sec", parallel_eps);
    json.Add("fabric_parallel_speedup", speedup);
    json.Add("fabric_parallel_efficiency", best_efficiency);
    json.Add("fabric_parallel_window_batch", int64_t{opts.window_batch});
    json.Add("fabric_parallel_windows_run", static_cast<int64_t>(parallel_windows));
    json.Add("fabric_parallel_windows_run_batch1", static_cast<int64_t>(batch1_windows));
    std::ofstream out(opts.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opts.json_path.c_str());
      return 1;
    }
    out << json.Build() << "\n";
    std::printf("JSON -> %s\n", opts.json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace occamy::exp

int main(int argc, char** argv) {
  occamy::bench::ParallelGateOptions opts;
  if (!occamy::bench::ParseParallelGateArgs(argc, argv, opts)) return 2;
  std::printf("== Fabric parallel engine: alltoall, %s scale, %d ms, %d shards ==\n",
              occamy::exp::ScaleName(opts.scale), occamy::exp::DurationMs(opts), opts.shards);
  return occamy::exp::Gate(opts);
}
