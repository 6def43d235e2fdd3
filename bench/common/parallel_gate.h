// Options and strict flag parsers of the parallel-engine gate bench
// (bench/bench_fabric_parallel.cc). The gate flags decide whether a perf
// regression fails CI, so every malformed value is a usage error
// (tests/parallel_gate_test.cc).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "src/exp/scenarios.h"

namespace occamy::bench {

struct ParallelGateOptions {
  std::string json_path;
  exp::BenchScale scale = exp::BenchScale::kDefault;
  int shards = 4;
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
  bool quick = false;  // a shorter run, timed once instead of best-of-2
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

// Parses the bench's flags (--json, --scale, --shards, --window-batch,
// --min-speedup, --min-speedup-per-core, --quick). Returns false on a
// bad or unknown argument.
inline bool ParseParallelGateArgs(int argc, char** argv, ParallelGateOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      opts.json_path = arg.substr(7);
    } else if (arg.rfind("--scale=", 0) == 0) {
      const std::optional<exp::BenchScale> scale = exp::ScaleByName(arg.substr(8));
      if (!scale.has_value()) {
        std::fprintf(stderr, "bad --scale (want smoke|default|full)\n");
        return false;
      }
      opts.scale = *scale;
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
      opts.quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_fabric_parallel [--json=PATH] [--scale=S] [--shards=N] "
                   "[--window-batch=K] [--min-speedup=X] [--min-speedup-per-core=X] "
                   "[--quick]\n");
      return false;
    }
  }
  return true;
}

}  // namespace occamy::bench
