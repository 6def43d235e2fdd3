#include "tools/sim_cli.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "src/exp/figures.h"
#include "src/exp/scenario_runner.h"
#include "src/fault/fault_plan.h"
#include "src/fault/recovery.h"
#include "src/obs/export.h"
#include "tools/sweep_cli.h"

namespace occamy::cli {

namespace {

// Splits `value` at commas, reporting empty entries explicitly (the usual
// victim is a doubled comma: "--alphas=1,,2").
std::optional<std::string> SplitList(const std::string& flag, const std::string& value,
                                     std::vector<std::string>& out) {
  std::string tok;
  std::istringstream ss(value);
  // getline drops a trailing empty token ("1,2," parses as {1,2}); detect
  // it up front so every empty entry is diagnosed the same way.
  if (!value.empty() && value.back() == ',') {
    return "empty entry in --" + flag + ": " + value;
  }
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) return "empty entry in --" + flag + ": " + value;
    out.push_back(tok);
  }
  if (out.empty()) return "empty --" + flag;
  return std::nullopt;
}

exp::PointSpec PointSpecOf(const SimOptions& opts) {
  exp::PointSpec spec;
  spec.scenario = opts.scenario;
  spec.bm = opts.bm;
  spec.seed = opts.seed;
  spec.duration_ms = opts.duration_ms;
  spec.alphas = opts.alphas;
  spec.shards = opts.shards;
  spec.window_batch = opts.window_batch;
  spec.faults = opts.faults;
  if (!opts.scale.empty()) spec.scale = exp::ScaleByName(opts.scale);
  return spec;
}

}  // namespace

std::optional<std::string> ParseDoubleList(const std::string& flag,
                                           const std::string& value,
                                           std::vector<double>& out) {
  std::vector<std::string> toks;
  if (auto err = SplitList(flag, value, toks)) return err;
  for (const auto& tok : toks) {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    // isfinite: strtod happily parses "nan" and "inf", and neither fails
    // the v <= 0 test (NaN compares false to everything).
    if (end == nullptr || *end != '\0' || !std::isfinite(v) || v <= 0) {
      return "invalid --" + flag + " entry: " + tok;
    }
    out.push_back(v);
  }
  return std::nullopt;
}

std::optional<std::string> ParseInt64List(const std::string& flag,
                                          const std::string& value,
                                          std::vector<int64_t>& out) {
  std::vector<std::string> toks;
  if (auto err = SplitList(flag, value, toks)) return err;
  for (const auto& tok : toks) {
    if (tok.find_first_not_of("0123456789") != std::string::npos || tok.size() > 18) {
      return "invalid --" + flag + " entry: " + tok;
    }
    const int64_t v = std::strtoll(tok.c_str(), nullptr, 10);
    if (v <= 0) return "invalid --" + flag + " entry: " + tok;
    out.push_back(v);
  }
  return std::nullopt;
}

std::optional<std::string> ParseNameList(const std::string& flag,
                                         const std::string& value,
                                         std::vector<std::string>& out) {
  return SplitList(flag, value, out);
}

std::optional<std::string> ParseDurationMs(const std::string& value, double& out) {
  char* end = nullptr;
  out = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(out) || out <= 0) {
    return "invalid --duration-ms: " + value;
  }
  return std::nullopt;
}

std::optional<std::string> ParseArgs(int argc, const char* const* argv, SimOptions& out) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      out.list = true;
      continue;
    }
    if (arg == "--degradation") {
      out.degradation = true;
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      out.help = true;
      continue;
    }
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos || eq == 2) {
      return "unrecognized argument: " + arg;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (value.empty()) return "empty value for --" + key;
    // Last-wins on repeated flags silently discards the earlier value;
    // report it instead, since it is almost always a typo in a long
    // command line.
    if (!seen.insert(key).second) {
      return "duplicate option --" + key + " (each option may be given once)";
    }
    if (key == "scenario") {
      out.scenario = value;
    } else if (key == "bm") {
      out.bm = value;
    } else if (key == "json") {
      out.json_path = value;
    } else if (key == "trace") {
      out.trace_path = value;
    } else if (key == "scale") {
      if (!exp::ScaleByName(value).has_value()) {
        return "invalid --scale (want smoke|default|full): " + value;
      }
      out.scale = value;
    } else if (key == "seed") {
      // Digits only: strtoull would silently wrap negatives and overflow.
      if (value.find_first_not_of("0123456789") != std::string::npos ||
          value.size() > 19) {
        return "invalid --seed: " + value;
      }
      out.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "duration-ms") {
      if (auto err = ParseDurationMs(value, out.duration_ms)) return err;
    } else if (key == "alphas") {
      out.alphas.clear();
      if (auto err = ParseDoubleList("alphas", value, out.alphas)) return err;
    } else if (key == "shards") {
      if (value.find_first_not_of("0123456789") != std::string::npos ||
          value.size() > 2) {
        return "invalid --shards: " + value;
      }
      out.shards = std::atoi(value.c_str());
      if (out.shards < 1 || out.shards > 64) {
        return "invalid --shards (want 1..64): " + value;
      }
    } else if (key == "window-batch") {
      if (value == "auto") {
        out.window_batch = 0;
      } else {
        if (value.find_first_not_of("0123456789") != std::string::npos ||
            value.size() > 2) {
          return "invalid --window-batch (want auto|1..16): " + value;
        }
        out.window_batch = std::atoi(value.c_str());
        if (out.window_batch < 1 || out.window_batch > 16) {
          return "invalid --window-batch (want auto|1..16): " + value;
        }
      }
    } else if (key == "faults") {
      // Parse eagerly so a malformed schedule is a usage error (exit 2)
      // naming the offending token, not a mid-run failure.
      fault::FaultPlan plan;
      if (auto perr = fault::ParseFaultPlan(value, &plan)) return *perr;
      out.faults = value;
    } else {
      return "unknown option: --" + key;
    }
  }
  if (out.degradation && out.faults.empty()) {
    return "--degradation needs --faults (it compares against the healthy twin)";
  }
  std::string range_error = exp::InputRangeError(PointSpecOf(out));
  if (!range_error.empty()) return range_error;
  // Unknown scenario names are reported by the run itself.
  if (const exp::ScenarioInfo* entry = exp::ScenarioByName(out.scenario)) {
    std::string shards_error = exp::ShardsError(*entry, out.shards);
    if (!shards_error.empty()) return shards_error;
  }
  return std::nullopt;
}

// ---------------- public API ----------------

std::vector<std::string> ScenarioNames() { return exp::ScenarioNames(); }

std::vector<std::string> SchemeNames() { return exp::SchemeNames(); }

// The caps the run, sweep and figure usage strings state.
static_assert(exp::kMaxDurationMs == 1e6);
static_assert(exp::kMaxAlpha == 1e4);
static_assert(exp::kMaxBgLoad == 100);
static_assert(exp::kMaxKnobBytes == 1'000'000'000);
static_assert(fault::kMaxFaultTime == 1000 * kSecond);

std::string UsageString() {
  std::ostringstream out;
  out << "Usage: occamy_sim [run] [options]\n"
         "       occamy_sim profile [options]\n"
         "       occamy_sim sweep [sweep options]\n"
         "       occamy_sim figure --name=<fig> [figure options]\n"
         "\n"
         "Runs a named buffer-management scenario and emits JSON metrics\n"
         "(stdout carries only the JSON; progress goes to stderr). The\n"
         "profile subcommand runs the scenario with tracing on and prints\n"
         "the aggregated engine profile (per-shard utilization, barrier\n"
         "overhead, window event-density histogram) instead of the JSON.\n"
         "The sweep/figure subcommands run whole experiment grids in\n"
         "parallel (see `occamy_sim sweep --help`).\n"
         "\n"
         "Options:\n"
         "  --scenario=<name>   scenario to run (default: incast); see --list\n"
         "  --bm=<scheme>       buffer-management scheme (default: occamy); see --list\n"
         "  --json=<path>       write the JSON result to <path> (default: stdout)\n"
         "  --trace=<path>      record a Chrome trace-event JSON (load in Perfetto /\n"
         "                      chrome://tracing); needs an OCCAMY_TRACE=ON build\n"
         "  --scale=<s>         smoke | default | full (default: OCCAMY_BENCH_SCALE)\n"
         "  --seed=<n>          RNG seed (default: 1)\n"
         "  --duration-ms=<ms>  traffic duration override, at most 1e6 ms\n"
         "                      (default: scenario-specific)\n"
         "  --alphas=<a,b,...>  per-class alpha override, each at most 1e4\n"
         "                      (default: scheme-specific)\n"
         "  --shards=<n>        run on the partition-parallel engine with n shards\n"
         "                      (node-affinity sharding; byte-identical metrics\n"
         "                      for any n; star/p4 scenarios take only n=1;\n"
         "                      default: single-threaded engine)\n"
         "  --window-batch=<k>  sharded engine: windows per plan-barrier round;\n"
         "                      auto (default) adapts to the staged-mail signal and\n"
         "                      window event density, 1 = one drain per window\n"
         "                      (legacy), 2..16 = fixed batch. Metrics are byte-\n"
         "                      identical at every setting; only barrier rounds\n"
         "                      (windows_run) change\n"
         "  --faults=<spec>     deterministic fault schedule, e.g.\n"
         "                      link_down:t=2ms,dur=1ms,node=sw0,port=3;loss:rate=0.01\n"
         "                      (types: link_down link_up blackhole freeze restart\n"
         "                      cp_freeze cp_delay loss corrupt gilbert; times at\n"
         "                      most 1000s; see README \"Fault injection\")\n"
         "  --degradation       also run the healthy twin (same seed, no faults) and\n"
         "                      emit healthy_<k>/delta_<k> fields for the key metrics\n"
         "                      plus time-to-recovery (fault_onset_ms,\n"
         "                      first_delivery_after_fault_ms, recovery_time_ms;\n"
         "                      -1 = never)\n"
         "  --list              list scenarios and schemes, then exit\n"
         "  --help              this message\n"
         "Values above a cap exit 2: they would overflow simulated time or\n"
         "byte counters.\n";
  return out.str();
}

SimResult RunScenario(const SimOptions& opts) {
  SimResult result;
  const exp::PointSpec spec = PointSpecOf(opts);
  exp::PointResult point = exp::RunPoint(spec);
  if (!point.ok) {
    result.error = std::move(point.error);
    return result;
  }

  // Degradation report: re-run the identical point with the fault schedule
  // cleared (same seed, same engine) and append healthy_<k> + delta_<k>
  // (faulted minus healthy) for the metrics that tell the availability
  // story. Only keys the platform actually emitted are compared.
  if (opts.degradation) {
    exp::PointSpec healthy = spec;
    healthy.faults.clear();
    healthy.loss_rate = 0;
    exp::PointResult base = exp::RunPoint(healthy);
    if (!base.ok) {
      result.error = "degradation baseline failed: " + base.error;
      return result;
    }
    static const char* const kDegradationKeys[] = {
        "goodput_gbps", "qct_avg_ms", "qct_p99_ms",       "drops",
        "rtos",         "expelled",   "delivered_bytes",  "burst_drops",
        "burst_loss_rate",
    };
    for (const char* key : kDegradationKeys) {
      const exp::Metrics::Value* faulted = point.metrics.Find(key);
      const exp::Metrics::Value* h = base.metrics.Find(key);
      if (faulted == nullptr || h == nullptr || !faulted->IsNumeric() ||
          !h->IsNumeric()) {
        continue;
      }
      const std::string name = key;
      if (faulted->kind == exp::Metrics::Kind::kInt &&
          h->kind == exp::Metrics::Kind::kInt) {
        point.metrics.Set("healthy_" + name, h->i);
        point.metrics.Set("delta_" + name, faulted->i - h->i);
      } else {
        point.metrics.Set("healthy_" + name, h->Number());
        point.metrics.Set("delta_" + name, faulted->Number() - h->Number());
      }
    }

    // Time-to-recovery (schema v8): derived from the per-millisecond
    // delivered-byte timelines of the faulted run and its healthy twin.
    // Only platforms with completion records carry a timeline (the p4
    // burst lab does not). Onset = the earliest fault activation.
    if (!point.delivered_by_ms.empty() || !base.delivered_by_ms.empty()) {
      fault::FaultPlan plan;
      if (auto perr = fault::ParseFaultPlan(opts.faults, &plan)) {
        result.error = *perr;  // unreachable after ParseArgs, but explicit
        return result;
      }
      Time onset = plan.events.empty() ? 0 : plan.events.front().at;
      for (const auto& ev : plan.events) onset = std::min(onset, ev.at);
      const double onset_ms = ToMilliseconds(onset);
      const fault::RecoveryReport rec = fault::ComputeRecovery(
          point.delivered_by_ms, base.delivered_by_ms, onset_ms);
      point.metrics.Set("fault_onset_ms", onset_ms);
      point.metrics.Set("first_delivery_after_fault_ms",
                        rec.first_delivery_after_fault_ms);
      point.metrics.Set("recovery_time_ms", rec.recovery_time_ms);
      point.metrics.Set("recovered", int64_t{rec.recovered ? 1 : 0});
    }
  }

  result.json = point.metrics.ToJson();
  result.ok = true;
  return result;
}

int Main(int argc, const char* const* argv) {
  bool profile = false;
  if (argc >= 2) {
    const std::string sub = argv[1];
    if (sub == "sweep") return SweepMain(argc - 1, argv + 1);
    if (sub == "figure") return FigureMain(argc - 1, argv + 1);
    if (sub == "run" || sub == "profile") {
      profile = sub == "profile";
      --argc;
      ++argv;
    }
  }

  SimOptions opts;
  if (const auto err = ParseArgs(argc, argv, opts)) {
    std::fprintf(stderr, "occamy_sim: %s\n\n%s", err->c_str(), UsageString().c_str());
    return 2;
  }
  opts.profile = profile;
  if (opts.help) {
    std::fputs(UsageString().c_str(), stdout);
    return 0;
  }
  if (opts.list) {
    std::printf("Scenarios:\n");
    for (const auto& e : exp::Scenarios()) {
      std::printf("  %-18s %-8s %s\n", e.name, e.platform, e.description);
    }
    std::printf("BM schemes:\n ");
    for (const auto& name : exp::SchemeNames()) std::printf(" %s", name.c_str());
    std::printf("\nFigures:\n");
    for (const auto& f : exp::Figures()) {
      std::printf("  %-8s %s\n", f.name, f.title);
    }
    return 0;
  }

  // Tracing brackets the whole run: armed before, drained after. The
  // profile subcommand implies it (the report aggregates the trace).
  const bool tracing = opts.profile || !opts.trace_path.empty();
  if (tracing && !obs::kTraceCompiled) {
    std::fprintf(stderr,
                 "occamy_sim: tracing is compiled out of this binary; rebuild "
                 "with -DOCCAMY_TRACE=ON\n");
    return 2;
  }
  if (tracing) obs::TraceRecorder::Get().Start(std::max(1, opts.shards));

  const SimResult result = RunScenario(opts);
  if (!result.ok) {
    if (tracing) obs::TraceRecorder::Get().Clear();
    std::fprintf(stderr, "occamy_sim: %s\n", result.error.c_str());
    return 1;
  }

  if (tracing) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
    recorder.Stop();
    const std::vector<obs::TraceEvent> events = recorder.SortedEvents();
    if (!opts.trace_path.empty()) {
      std::ofstream trace_out(opts.trace_path);
      if (!trace_out) {
        std::fprintf(stderr, "occamy_sim: cannot write %s\n", opts.trace_path.c_str());
        return 1;
      }
      obs::WriteChromeTrace(events, recorder.shards(), trace_out);
      std::fprintf(stderr, "occamy_sim: %zu trace events -> %s\n", events.size(),
                   opts.trace_path.c_str());
    }
    if (opts.profile) {
      const obs::ProfileReport report =
          obs::BuildProfileReport(events, recorder.shards(), recorder.dropped());
      std::fputs(obs::FormatProfileReport(report).c_str(), stdout);
    }
    recorder.Clear();
  }

  if (!opts.json_path.empty()) {
    std::ofstream out(opts.json_path);
    if (!out) {
      std::fprintf(stderr, "occamy_sim: cannot write %s\n", opts.json_path.c_str());
      return 1;
    }
    out << result.json << "\n";
    // Progress chatter goes to stderr: stdout is reserved for machine
    // output (the JSON result or the profile report).
    std::fprintf(stderr, "occamy_sim: %s under %s done, JSON -> %s\n",
                 opts.scenario.c_str(), opts.bm.c_str(), opts.json_path.c_str());
  } else if (!opts.profile) {
    std::printf("%s\n", result.json.c_str());
  }
  return 0;
}

}  // namespace occamy::cli
