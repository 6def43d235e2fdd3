#include "src/exp/scenario_runner.h"

#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <utility>

#include "src/exp/burst_lab.h"
#include "src/exp/dpdk_run.h"
#include "src/exp/fabric_run.h"
#include "src/exp/telemetry.h"
#include "src/fault/fault_plan.h"

namespace occamy::exp {

namespace {

const std::vector<ScenarioInfo>& ScenarioTable() {
  static const std::vector<ScenarioInfo> kTable = {
      {"burst", "p4", 1, "open-loop overload + measured burst into one shared buffer (Fig. 12)"},
      {"incast", "star", 1, "incast queries only, no background (§6.2)"},
      {"burst_absorption", "star", 1, "incast + DCTCP web-search background (Fig. 13)"},
      {"isolation", "star", 2, "incast vs CUBIC background in separate DRR queues (Fig. 14)"},
      {"choking", "star", 8, "HP incast vs saturating LP background, strict priority (Fig. 15)"},
      {"websearch", "fabric", 1, "leaf-spine, web-search background + incast queries (§6.4)"},
      {"alltoall", "fabric", 1, "leaf-spine, all-to-all collective background (Fig. 18)"},
      {"allreduce", "fabric", 1, "leaf-spine, all-reduce collective background (Fig. 19)"},
  };
  return kTable;
}

// Traffic window, drain tail and delivered volume of a star or fabric run.
// Goodput spans the whole simulated window: flows completing in the drain
// tail are counted in the numerator, so the denominator must include the
// tail too or goodput can exceed line rate.
void AddVolumeFields(Metrics& m, double duration_ms, double drain_ms, int64_t delivered_bytes) {
  m.Set("duration_ms", duration_ms);
  m.Set("drain_ms", drain_ms);
  m.Set("delivered_bytes", delivered_bytes);
  const double total_ms = duration_ms + drain_ms;
  const double goodput_gbps =
      total_ms > 0 ? static_cast<double>(delivered_bytes) * 8.0 / (total_ms * 1e6) : 0.0;
  m.Set("goodput_gbps", goodput_gbps);
}

// Error for the first of `knobs` (name, was set) that was set although it
// has no effect on this scenario, or "" if none was; silent acceptance would
// make sweep grids lie about what they varied.
std::string KnobError(const ScenarioInfo& entry,
                      std::initializer_list<std::pair<const char*, bool>> knobs) {
  for (const auto& [knob, set] : knobs) {
    if (set) {
      return std::string(knob) + " does not apply to scenario '" + entry.name +
             "' (platform " + entry.platform + ")";
    }
  }
  return "";
}

// The effective fault schedule of a point: the explicit `faults` string
// plus the `loss_rate` shorthand appended as an i.i.d. loss fault. Empty =
// healthy run.
std::string ComposeFaults(const PointSpec& spec) {
  std::string f = spec.faults;
  if (spec.loss_rate > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "loss:rate=%.17g", spec.loss_rate);
    if (!f.empty()) f += ';';
    f += buf;
  }
  return f;
}

void AddCommonFields(Metrics& m, const ScenarioInfo& entry, const PointSpec& spec,
                     BenchScale scale, const std::string& faults) {
  // Schema v8. The telemetry keys each version added are noted in
  // AddTelemetryFields; v7 also added the `faults` schedule / `loss_rate`
  // echo below, when set.
  m.Set("schema_version", int64_t{8});
  m.Set("scenario", entry.name);
  m.Set("platform", entry.platform);
  m.Set("bm", spec.bm);
  m.Set("scale", ScaleName(scale));
  m.Set("seed", spec.seed);
  if (!faults.empty()) m.Set("faults", faults);
  if (spec.loss_rate > 0) m.Set("loss_rate", spec.loss_rate);
}

void AddOccupancy(Metrics& m, int64_t buffer_bytes, int64_t peak_bytes) {
  m.Set("buffer_bytes", buffer_bytes);
  m.Set("peak_occupancy_bytes", peak_bytes);
  m.Set("peak_occupancy_frac",
        buffer_bytes > 0
            ? static_cast<double>(peak_bytes) / static_cast<double>(buffer_bytes)
            : 0.0);
}

PointResult RunBurst(const ScenarioInfo& entry, Scheme scheme, const PointSpec& spec,
                     BenchScale scale, const std::string& faults) {
  PointResult result;
  result.error = KnobError(entry, {{"bg_load", spec.bg_load != 0},
                                   {"query_bytes", spec.query_bytes != 0},
                                   {"bg_flow_bytes", spec.bg_flow_bytes != 0}});
  if (!result.error.empty()) return result;

  BurstLabSpec run;
  run.scheme = scheme;
  if (!spec.alphas.empty()) run.alpha = spec.alphas.front();
  if (spec.burst_bytes > 0) run.burst_bytes = spec.burst_bytes;
  if (spec.buffer_bytes > 0) run.buffer_bytes = spec.buffer_bytes;
  if (spec.duration_ms > 0) run.horizon = FromSeconds(spec.duration_ms / 1000.0);
  run.seed = spec.seed;
  run.faults = faults;

  const PerfClock::time_point start = PerfClock::now();
  const BurstLabResult r = RunBurstLab(run);

  Metrics& m = result.metrics;
  AddCommonFields(m, entry, spec, scale, faults);
  m.Set("alpha", run.alpha);
  m.Set("burst_bytes", run.burst_bytes);
  m.Set("horizon_ms", ToMilliseconds(run.horizon));
  m.Set("burst_packets", r.burst_packets);
  m.Set("burst_drops", r.burst_drops);
  m.Set("burst_loss_rate", r.BurstLossRate());
  m.Set("long_lived_drops", r.long_lived_drops);
  m.Set("expelled", r.telemetry.expelled);
  m.Set("buffer_bytes", run.buffer_bytes);
  AddTelemetryFields(m, r.telemetry, start);
  result.ok = true;
  return result;
}

PointResult RunStar(const ScenarioInfo& entry, Scheme scheme, const PointSpec& spec,
                    BenchScale scale, const std::string& faults) {
  PointResult result;
  const std::string name = entry.name;
  result.error = KnobError(entry, {{"bg_flow_bytes", spec.bg_flow_bytes != 0},
                                   {"burst_bytes", spec.burst_bytes != 0},
                                   {"bg_load", name == "incast" && spec.bg_load != 0}});
  if (!result.error.empty()) return result;

  DpdkRunSpec run;
  run.scheme = scheme;
  run.queues_per_port = entry.traffic_classes;
  run.alphas = spec.alphas;
  if (run.alphas.size() == 1) {
    run.alphas.assign(static_cast<size_t>(run.queues_per_port), spec.alphas.front());
  }
  run.seed = spec.seed;
  run.scale = scale;
  run.faults = faults;
  if (spec.buffer_bytes > 0) run.buffer_bytes = spec.buffer_bytes;

  if (name == "incast") {
    run.bg = DpdkRunSpec::Bg::kNone;
  } else if (name == "burst_absorption") {
    run.bg = DpdkRunSpec::Bg::kWebSearchDctcp;
    run.bg_load = 0.5;
  } else if (name == "isolation") {
    // Fig. 14: queries and CUBIC background in separate DRR queues.
    run.scheduler = tm::SchedulerKind::kDrr;
    run.bg = DpdkRunSpec::Bg::kWebSearchCubic;
    run.bg_load = 0.4;
    run.bg_tc = 1;
    run.query_tc = 0;
    run.query_bytes = run.buffer_bytes * 6 / 10;
  } else {  // choking (Fig. 15)
    run.scheduler = tm::SchedulerKind::kStrictPriority;
    if (run.alphas.empty()) run.alphas = {8.0, 1, 1, 1, 1, 1, 1, 1};
    run.bg = DpdkRunSpec::Bg::kSaturatingLp;
    run.bg_load = 1.0;
    run.query_tc = 0;
    run.query_bytes = run.buffer_bytes * 2;
  }
  if (spec.bg_load > 0) run.bg_load = spec.bg_load;
  if (spec.query_bytes > 0) run.query_bytes = spec.query_bytes;
  if (spec.duration_ms > 0) {
    run.duration = run.max_duration = FromSeconds(spec.duration_ms / 1000.0);
    run.min_queries = 0;
  }

  const PerfClock::time_point start = PerfClock::now();
  const DpdkRunResult r = RunDpdk(run);

  Metrics& m = result.metrics;
  AddCommonFields(m, entry, spec, scale, faults);
  m.Set("bg_load", run.bg == DpdkRunSpec::Bg::kNone ? 0.0 : run.bg_load);
  m.Set("query_bytes", run.query_bytes);
  AddVolumeFields(m, r.duration_ms, r.drain_ms, r.delivered_bytes);
  m.Set("queries_completed", r.queries);
  m.Set("qct_avg_ms", r.qct_avg_ms);
  m.Set("qct_p99_ms", r.qct_p99_ms);
  m.Set("fct_avg_ms", r.fct_avg_ms);
  m.Set("fct_small_p99_ms", r.fct_small_p99_ms);
  m.Set("rtos", r.rtos);
  m.Set("drops", r.telemetry.drops);
  m.Set("expelled", r.telemetry.expelled);
  AddOccupancy(m, r.buffer_bytes, r.telemetry.peak_occupancy_bytes);
  AddTelemetryFields(m, r.telemetry, start);
  result.delivered_by_ms = r.telemetry.delivered_by_ms;
  result.ok = true;
  return result;
}

PointResult RunFabricScenario(const ScenarioInfo& entry, Scheme scheme,
                              const PointSpec& spec, BenchScale scale,
                              const std::string& faults) {
  PointResult result;
  const std::string name = entry.name;
  result.error =
      KnobError(entry, {{"query_bytes", spec.query_bytes != 0},
                        {"buffer_bytes", spec.buffer_bytes != 0},
                        {"burst_bytes", spec.burst_bytes != 0},
                        {"bg_flow_bytes", name == "websearch" && spec.bg_flow_bytes != 0}});
  if (!result.error.empty()) return result;

  FabricRunSpec run;
  run.scheme = scheme;
  run.alphas = spec.alphas;
  run.seed = spec.seed;
  run.scale = scale;
  run.shards = spec.shards;
  run.faults = faults;

  if (name == "alltoall") {
    run.pattern = BgPattern::kAllToAll;
    run.bg_load = 0.6;
    run.bg_fixed_size = 256 * 1024;  // midpoint of the Fig. 18 sweep
  } else if (name == "allreduce") {
    run.pattern = BgPattern::kAllReduce;
    run.bg_load = 0.6;
    run.bg_fixed_size = 256 * 1024;
  } else {  // websearch
    run.pattern = BgPattern::kWebSearch;
    run.bg_load = 0.9;
  }
  if (spec.bg_load > 0) run.bg_load = spec.bg_load;
  if (spec.bg_flow_bytes > 0) run.bg_fixed_size = spec.bg_flow_bytes;
  if (spec.duration_ms > 0) run.duration = FromSeconds(spec.duration_ms / 1000.0);

  const PerfClock::time_point start = PerfClock::now();
  const FabricRunResult r = RunFabric(run);

  Metrics& m = result.metrics;
  AddCommonFields(m, entry, spec, scale, faults);
  m.Set("bg_load", run.bg_load);
  if (run.pattern != BgPattern::kWebSearch) {
    m.Set("bg_flow_bytes", run.bg_fixed_size);
  }
  AddVolumeFields(m, r.duration_ms, r.drain_ms, r.delivered_bytes);
  m.Set("queries_completed", r.queries_completed);
  m.Set("bg_flows_completed", r.bg_flows_completed);
  m.Set("qct_avg_ms", r.qct_avg_ms);
  m.Set("qct_p99_ms", r.qct_p99_ms);
  m.Set("qct_avg_slowdown", r.qct_avg_slow);
  m.Set("qct_p99_slowdown", r.qct_p99_slow);
  m.Set("fct_avg_slowdown", r.fct_avg_slow);
  m.Set("fct_p99_slowdown", r.fct_p99_slow);
  m.Set("fct_small_p99_slowdown", r.fct_small_p99_slow);
  m.Set("drops", r.telemetry.drops);
  m.Set("expelled", r.telemetry.expelled);
  AddOccupancy(m, r.buffer_bytes, r.telemetry.peak_occupancy_bytes);
  AddTelemetryFields(m, r.telemetry, start);
  result.delivered_by_ms = r.telemetry.delivered_by_ms;
  result.ok = true;
  return result;
}

}  // namespace

// ---------------- registries ----------------

const std::vector<ScenarioInfo>& Scenarios() { return ScenarioTable(); }

const ScenarioInfo* ScenarioByName(const std::string& name) {
  for (const auto& e : ScenarioTable()) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

std::vector<std::string> ScenarioNames() {
  std::vector<std::string> names;
  for (const auto& e : ScenarioTable()) names.emplace_back(e.name);
  return names;
}

std::string ShardsError(const ScenarioInfo& entry, int shards) {
  if (shards <= 1 || std::string(entry.platform) == "fabric") return "";
  return "shards=" + std::to_string(shards) + " does not apply to scenario '" + entry.name +
         "' (platform " + entry.platform + " runs on one shard)";
}

std::string AlphasError(const ScenarioInfo& entry, size_t count) {
  const size_t classes = static_cast<size_t>(entry.traffic_classes);
  if (count <= 1 || count == classes) return "";
  std::ostringstream err;
  err << "--alphas has " << count << " entries; scenario '" << entry.name << "' has "
      << classes;
  if (classes == 1) {
    err << " traffic class (give one alpha)";
  } else {
    err << " traffic classes (give one alpha for all, or one per class)";
  }
  return err.str();
}

// ---------------- point execution ----------------

PointResult RunPoint(const PointSpec& spec) {
  PointResult result;
  const auto scheme = SchemeByName(spec.bm);
  if (!scheme.has_value()) {
    result.error = "unknown BM scheme: " + spec.bm + " (see --list)";
    return result;
  }
  const ScenarioInfo* entry = ScenarioByName(spec.scenario);
  if (entry == nullptr) {
    result.error = "unknown scenario: " + spec.scenario + " (see --list)";
    return result;
  }
  if (spec.shards < 1 || spec.shards > 64) {
    result.error = "shards out of range (want 1..64): " + std::to_string(spec.shards);
    return result;
  }
  result.error = ShardsError(*entry, spec.shards);
  if (!result.error.empty()) return result;
  result.error = AlphasError(*entry, spec.alphas.size());
  if (!result.error.empty()) return result;
  if (spec.loss_rate < 0 || spec.loss_rate >= 1) {
    result.error = "loss_rate out of range (want 0 <= rate < 1): " +
                   std::to_string(spec.loss_rate);
    return result;
  }
  result.error = InputRangeError(spec);
  if (!result.error.empty()) return result;
  const std::string faults = ComposeFaults(spec);
  if (!faults.empty()) {
    fault::FaultPlan plan;
    if (auto err = fault::ParseFaultPlan(faults, &plan)) {
      result.error = *err;
      return result;
    }
  }
  const BenchScale scale = spec.scale.value_or(GetBenchScale());
  const std::string platform = entry->platform;
  if (platform == "p4") return RunBurst(*entry, *scheme, spec, scale, faults);
  if (platform == "star") return RunStar(*entry, *scheme, spec, scale, faults);
  return RunFabricScenario(*entry, *scheme, spec, scale, faults);
}

// ---------------- input caps ----------------

std::string InputRangeError(const PointSpec& spec) {
  std::ostringstream err;
  err.precision(12);
  const auto out_of_range = [&err](const char* flag, auto value, auto cap) {
    if (value >= 0 && value <= cap) return false;  // NaN fails both
    err << flag << " out of range [0, " << cap << "]: " << value;
    return true;
  };
  if (out_of_range("--duration-ms", spec.duration_ms, kMaxDurationMs)) return err.str();
  for (const double alpha : spec.alphas) {
    if (out_of_range("--alphas entry", alpha, kMaxAlpha)) return err.str();
  }
  if (out_of_range("--bg-loads entry", spec.bg_load, kMaxBgLoad)) return err.str();
  const std::pair<const char*, int64_t> sizes[] = {
      {"--query-bytes entry", spec.query_bytes},
      {"--buffer-bytes entry", spec.buffer_bytes},
      {"--bg-flow-bytes entry", spec.bg_flow_bytes},
      {"--burst-bytes entry", spec.burst_bytes}};
  for (const auto& [flag, bytes] : sizes) {
    if (out_of_range(flag, bytes, kMaxKnobBytes)) return err.str();
  }
  return "";
}

}  // namespace occamy::exp
