// Single-point experiment execution: runs one (scenario, scheme, seed,
// knobs) combination and returns a typed metric dictionary.
//
// This is the layer underneath both the occamy_sim CLI (single runs) and
// the sweep engine (src/exp/sweep_runner.h): every knob is explicit in the
// PointSpec, so points are safe to execute concurrently from many threads —
// nothing here writes process-global state such as environment variables.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/exp/metrics.h"
#include "src/exp/scenarios.h"

namespace occamy::exp {

// ---------------- registries ----------------

struct ScenarioInfo {
  const char* name;
  // "p4" (§6.1 burst lab), "star" (§6.2 DPDK testbed) or "fabric" (§6.4).
  const char* platform;
  int traffic_classes;  // queues per egress port, one alpha each
  const char* description;
};

const std::vector<ScenarioInfo>& Scenarios();
const ScenarioInfo* ScenarioByName(const std::string& name);
std::vector<std::string> ScenarioNames();

// The usage error for running `entry` on `shards` shards, or "" when it
// may. Star and P4 scenarios model one shared-memory switch and take at
// most one shard; fabric scenarios take any count.
std::string ShardsError(const ScenarioInfo& entry, int shards);

// The usage error for an --alphas list of `count` entries on `entry`, or ""
// when it fits: one entry sets every traffic class, or one entry per class.
std::string AlphasError(const ScenarioInfo& entry, size_t count);

// ---------------- point execution ----------------

struct PointSpec {
  std::string scenario = "incast";
  std::string bm = "occamy";
  uint64_t seed = 1;
  // nullopt = fall back to OCCAMY_BENCH_SCALE (read once, at run start).
  std::optional<BenchScale> scale;
  double duration_ms = 0;      // 0 = scenario default
  // Alpha override: empty = scheme default, one entry = every traffic
  // class, otherwise one per class (see AlphasError).
  std::vector<double> alphas;

  // Sweepable knobs; 0 = scenario default. Each knob only applies to some
  // platforms (validated in RunPoint, see KnobError):
  double bg_load = 0;        // star + fabric: background load fraction
  int64_t query_bytes = 0;   // star: incast query size
  int64_t buffer_bytes = 0;  // p4 + star: shared-buffer size
  int64_t bg_flow_bytes = 0; // fabric alltoall/allreduce: fixed flow size
  int64_t burst_bytes = 0;   // p4 burst lab: measured burst size

  // Fault injection (all platforms). `faults` is a full src/fault schedule
  // string; `loss_rate` is the sweepable shorthand for i.i.d. loss — when
  // > 0 it appends `loss:rate=<v>` to the schedule. Both are validated in
  // RunPoint (parse errors surface as PointResult.error, not a crash).
  std::string faults;
  double loss_rate = 0;  // 0 = none; must be < 1

  // Shards of the partition-parallel engine, 1..64 (node-affinity
  // sharding; above 1 on fabric scenarios only, see ShardsError). Results
  // are byte-identical for any value (the determinism contract of
  // sim::ShardedSimulator), so this is an execution knob, not a sweep
  // dimension.
  int shards = 1;
};

struct PointResult {
  bool ok = false;
  std::string error;  // set when !ok
  Metrics metrics;    // set when ok
  // Delivered application bytes bucketed by completion millisecond (star
  // and fabric platforms; empty on the p4 burst lab, which has no
  // completion records). Exact integers, byte-identical for any shard
  // count; the --degradation report derives time-to-recovery from it
  // (src/fault/recovery.h).
  std::vector<int64_t> delivered_by_ms;
};

// Runs one point. Returns !ok with a descriptive error for unknown
// scenario/scheme names, knobs that do not apply to the platform, a shard
// count or alpha list the scenario does not take, or an input outside its
// cap (InputRangeError).
PointResult RunPoint(const PointSpec& spec);

// ---------------- input caps ----------------

// The largest value each run input may take. Every cap sits far above what
// the paper, the figure registry, the tests, CI and the benchmark use, and
// far below the values at which simulated time or int64 byte arithmetic
// overflows, or pregeneration draws an effectively unbounded arrival stream.
inline constexpr double kMaxDurationMs = 1e6;  // 1000 s of simulated time
inline constexpr double kMaxAlpha = 1e4;
inline constexpr double kMaxBgLoad = 100;  // x line rate
// Query, buffer, collective-flow and burst sizes.
inline constexpr int64_t kMaxKnobBytes = 1'000'000'000;

// The error for the first input of `spec` outside [0, cap], naming the CLI
// flag that sets it, or "" when every input is in range. The run and
// profile parser, ExpandSweep (sweep, figure) and RunPoint all check here.
std::string InputRangeError(const PointSpec& spec);

}  // namespace occamy::exp
