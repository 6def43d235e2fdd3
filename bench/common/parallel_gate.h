// Shared harness for the parallel-engine determinism + speedup gate bench
// (bench_fabric_parallel).
//
// Each bench runs its scenario three ways — single shard at the legacy
// one-window-per-drain schedule (the oracle), N shards at the requested
// --window-batch (the timed configuration), and, when batching is on, N
// shards at batch=1 (the windows_run reference) — hard-fails on any
// deterministic-metric mismatch (the engines' contract), reports the
// wall-clock speedup, optionally gates it against an absolute floor or a
// per-core floor (enforced only when the machine has >= shards hardware
// threads), asserts that adaptive batching strictly reduces barrier rounds,
// and emits a flat `<prefix>_*` JSON dictionary for tools/perf_report.py
// to merge into BENCH_core.json. The bench supplies the scenario-specific
// parts: how to run one configuration, how to compare two results, and the
// metric prefix.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench/common/table.h"
#include "src/util/json.h"

namespace occamy::bench {

struct ParallelGateOptions {
  std::string json_path;
  int shards = 4;
  int rounds = 2;  // best-of-N wall times to ride out machine noise
  // Sharded engine: windows per plan-barrier round for the timed leg.
  // 0 = adaptive (the default the CLIs and benches now run), 1 = legacy.
  int window_batch = 0;
  // Hard wall-clock gate: fail unless speedup >= this, enforced only when
  // the machine has at least `shards` hardware threads (a 1-core box can
  // only validate determinism). 0 = report only.
  double min_speedup = 0;
  // Per-core variant of the gate: the required speedup is this value times
  // min(cores, shards), so one flag scales across runner shapes
  // (--min-speedup-per-core=0.5 demands 2x on a 4-core/4-shard run).
  // Composes with min_speedup: the stricter of the two wins.
  double min_speedup_per_core = 0;
};

// Strict double parse for gate flags: the whole token must be a finite,
// non-negative number. std::atof silently returns 0 on garbage, which
// would turn a typo'd gate into "report only" (cert-err34-c).
inline bool ParseGateDouble(const char* text, double& out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < 0) return false;
  out = v;
  return true;
}

// Strict integer parse for gate flags: at most two digits (no sign, no
// trailing garbage — atoi would read "4x" and "+4" as 4), within [lo, hi].
inline bool ParseGateInt(const std::string& text, int lo, int hi, int& out) {
  if (text.empty() || text.size() > 2 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  const int v = std::atoi(text.c_str());
  if (v < lo || v > hi) return false;
  out = v;
  return true;
}

// Parses the flags shared by every gate bench (--json, --shards,
// --window-batch, --min-speedup, --min-speedup-per-core, --quick). Returns
// false on a bad/unknown argument; `on_quick` applies the bench's own
// shortened configuration.
template <typename QuickFn>
bool ParseParallelGateArgs(int argc, char** argv, ParallelGateOptions& opts,
                           const char* bench_name, QuickFn&& on_quick) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      opts.json_path = arg.substr(7);
    } else if (arg.rfind("--shards=", 0) == 0) {
      if (!ParseGateInt(arg.substr(9), 2, 64, opts.shards)) {
        std::fprintf(stderr, "bad --shards (want 2..64)\n");
        return false;
      }
    } else if (arg.rfind("--window-batch=", 0) == 0) {
      const std::string value = arg.substr(15);
      if (value == "auto") {
        opts.window_batch = 0;
      } else if (!ParseGateInt(value, 1, 16, opts.window_batch)) {
        std::fprintf(stderr, "bad --window-batch (want auto|1..16)\n");
        return false;
      }
    } else if (arg.rfind("--min-speedup=", 0) == 0) {
      if (!ParseGateDouble(arg.c_str() + 14, opts.min_speedup)) {
        std::fprintf(stderr, "bad --min-speedup (want a non-negative number)\n");
        return false;
      }
    } else if (arg.rfind("--min-speedup-per-core=", 0) == 0) {
      if (!ParseGateDouble(arg.c_str() + 23, opts.min_speedup_per_core)) {
        std::fprintf(stderr,
                     "bad --min-speedup-per-core (want a non-negative number)\n");
        return false;
      }
    } else if (arg == "--quick") {
      opts.rounds = 1;
      on_quick();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH] [--shards=N] [--window-batch=K] "
                   "[--min-speedup=X] [--min-speedup-per-core=X] [--quick]\n",
                   bench_name);
      return false;
    }
  }
  return true;
}

// The gate proper. `run(shards, window_batch)` executes one configuration
// and returns its result; `identical(a, b, diff)` compares every
// deterministic field, filling `diff` on mismatch; `sanity(result, err)`
// rejects vacuous runs (e.g. zero traffic); `sim_events` / `efficiency` /
// `windows_run` read those fields off a result. Returns the process exit
// code.
template <typename Result, typename RunFn, typename IdenticalFn, typename SanityFn,
          typename SimEventsFn, typename EfficiencyFn, typename WindowsFn>
int RunParallelGate(const ParallelGateOptions& opts, const std::string& prefix,
                    RunFn&& run, IdenticalFn&& identical, SanityFn&& sanity,
                    SimEventsFn&& sim_events, EfficiencyFn&& efficiency,
                    WindowsFn&& windows_run) {
  using PerfClock = std::chrono::steady_clock;

  double serial_ms = 1e300, parallel_ms = 1e300;
  Result serial{}, parallel{};
  double best_efficiency = 0;
  for (int r = 0; r < opts.rounds; ++r) {
    const PerfClock::time_point t0 = PerfClock::now();
    serial = run(1, 1);  // the legacy single-shard oracle
    const PerfClock::time_point t1 = PerfClock::now();
    parallel = run(opts.shards, opts.window_batch);
    const PerfClock::time_point t2 = PerfClock::now();
    serial_ms = std::min(
        serial_ms, std::chrono::duration<double, std::milli>(t1 - t0).count());
    const double pm = std::chrono::duration<double, std::milli>(t2 - t1).count();
    if (pm < parallel_ms) {
      parallel_ms = pm;
      best_efficiency = efficiency(parallel);
    }
  }

  std::string diff;
  if (!identical(serial, parallel, diff)) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: shards=1 vs shards=%d metrics differ (%s)\n",
                 opts.shards, diff.c_str());
    return 1;
  }
  std::string sanity_err;
  if (!sanity(serial, sanity_err)) {
    std::fprintf(stderr, "EMPTY RUN: %s\n", sanity_err.c_str());
    return 1;
  }

  // Window-batching leg: when the timed configuration batches (anything but
  // the fixed batch=1 schedule), run the same sharded configuration at
  // batch=1 once and require (a) byte-identical metrics and (b) strictly
  // fewer barrier rounds from batching — the whole point of the policy.
  const uint64_t parallel_windows = windows_run(parallel);
  uint64_t batch1_windows = parallel_windows;
  if (opts.window_batch != 1) {
    const Result reference = run(opts.shards, 1);
    diff.clear();
    if (!identical(serial, reference, diff)) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: window_batch=1 reference differs (%s)\n",
                   diff.c_str());
      return 1;
    }
    batch1_windows = windows_run(reference);
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
  const int64_t events = sim_events(serial);
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
    json.Add(prefix + "_shards", int64_t{opts.shards});
    json.Add(prefix + "_cores", static_cast<int64_t>(cores));
    json.Add(prefix + "_sim_events", events);
    json.Add(prefix + "_serial_wall_ms", serial_ms);
    json.Add(prefix + "_wall_ms", parallel_ms);
    json.Add(prefix + "_serial_events_per_sec", serial_eps);
    json.Add(prefix + "_events_per_sec", parallel_eps);
    json.Add(prefix + "_speedup", speedup);
    json.Add(prefix + "_efficiency", best_efficiency);
    json.Add(prefix + "_window_batch", int64_t{opts.window_batch});
    json.Add(prefix + "_windows_run", static_cast<int64_t>(parallel_windows));
    json.Add(prefix + "_windows_run_batch1", static_cast<int64_t>(batch1_windows));
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

}  // namespace occamy::bench
