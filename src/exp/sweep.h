// SweepSpec: a declarative experiment grid (scenarios x schemes x seeds x
// overridable knobs), expanded by cartesian product into concrete run
// points with stable, sortable keys.
//
// Keys are "field=value" pairs joined by '|' in a fixed field order
// (scenario, bm, then each active knob, then seed). The cell key is the run
// key minus the seed: all seeds of one parameter combination share a cell,
// which is the aggregation unit for mean/p99 statistics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/exp/scenario_runner.h"

namespace occamy::exp {

struct SweepSpec {
  std::vector<std::string> scenarios;  // required, validated against registry
  std::vector<std::string> bms;        // required, validated against registry
  int seeds = 1;                       // runs seeds base_seed..base_seed+seeds-1
  uint64_t base_seed = 1;
  std::optional<BenchScale> scale;  // nullopt = env fallback
  double duration_ms = 0;                  // 0 = scenario default

  // Sweep dimensions. An empty vector means "scenario default" (one grid
  // element, no key field). `alphas` entries are a single alpha applied to
  // every traffic class of the run.
  std::vector<double> alphas;
  std::vector<double> bg_loads;
  std::vector<int64_t> query_bytes;
  std::vector<int64_t> buffer_bytes;
  std::vector<int64_t> bg_flow_bytes;
  std::vector<int64_t> burst_bytes;
  // i.i.d. loss-rate grid axis (key field "loss_rate"); each value must be
  // in [0, 1) — validated per point by RunPoint.
  std::vector<double> loss_rates;

  // Fault schedule applied to EVERY point (src/fault grammar). Like
  // duration_ms it is a run condition, not a grid axis — it does not enter
  // the run key. Composes with `loss_rates` (the loss fault is appended).
  std::string faults;

  // Execution knob, not a grid axis (runs are byte-identical at any shard
  // count, so it cannot change any result): every point runs on the
  // partition-parallel engine with this many shards. Above 1 it applies to
  // fabric scenarios only (see ShardsError).
  int shards = 1;
};

// One expanded grid element: the executable spec plus its identity.
struct SweepPoint {
  PointSpec spec;
  std::string run_key;   // unique per run, includes seed
  std::string cell_key;  // run_key minus the seed field
  // Ordered (field, value) pairs backing the keys; seed last.
  std::vector<std::pair<std::string, std::string>> key_fields;
};

// Number of points `spec` expands to (0 when scenarios/bms are empty).
size_t GridSize(const SweepSpec& spec);

// Expands the grid in deterministic order (scenario-major, seed-minor).
// Returns an error message for unknown scenario/scheme names, a shard count
// a scenario does not take, a non-positive seed count, or a point with an
// input outside its cap (InputRangeError); on success fills `out`.
std::optional<std::string> ExpandSweep(const SweepSpec& spec,
                                       std::vector<SweepPoint>& out);

}  // namespace occamy::exp
