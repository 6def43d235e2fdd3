#include "tools/sim_cli.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <vector>

#include "src/exp/figures.h"
#include "src/exp/sinks.h"
#include "src/exp/sweep_runner.h"
#include "src/fault/fault_plan.h"
#include "src/fault/recovery.h"
#include "src/obs/export.h"

namespace occamy::cli {

namespace {

using Error = std::optional<std::string>;
using Arg = const std::string&;

// The caps the CLI checks itself; src/exp checks the others (InputRangeError).
// RunPoint and RunSweep hold shards and jobs to the same 64.
constexpr int kMaxShards = 64;
constexpr int kMaxJobs = 64;
constexpr int kMaxSeeds = 100000;

// The subcommands, indexed by Command.
struct Subcommand {
  const char* name;
  const char* label;     // the prefix of its error and progress lines
  const char* synopsis;  // what its --help says above the options
};
constexpr char kRunSynopsis[] =
    "Usage: occamy_sim [run] [options]\n"
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
    "parallel (see `occamy_sim sweep --help`).\n";
constexpr Subcommand kSubcommands[] = {
    {"run", "occamy_sim", kRunSynopsis},
    {"profile", "occamy_sim", kRunSynopsis},
    {"sweep", "occamy_sim sweep",
     "Usage: occamy_sim sweep --scenarios=<a,b> --bms=<x,y> [options]\n"
     "\n"
     "Expands the cartesian grid scenarios x bms x grid axes x seeds,\n"
     "runs it across worker threads, and writes runs.jsonl (one JSON\n"
     "object per run, sorted by run key) plus summary.csv (per-cell\n"
     "mean/p99 across seeds) into the output directory.\n"},
    {"figure", "occamy_sim figure",
     "Usage: occamy_sim figure --name=<fig> [options]\n"
     "\n"
     "Runs a registered paper-figure grid through the sweep engine and\n"
     "writes runs.jsonl + summary.csv (one row per scheme x cell).\n"},
};

const Subcommand& Of(Command command) { return kSubcommands[static_cast<int>(command)]; }

constexpr unsigned Bit(Command command) { return 1u << static_cast<unsigned>(command); }
constexpr unsigned kRun = Bit(Command::kRun) | Bit(Command::kProfile);
constexpr unsigned kSweep = Bit(Command::kSweep);
constexpr unsigned kFigure = Bit(Command::kFigure);
constexpr unsigned kAll = kRun | kSweep | kFigure;

// At most `digits` decimal digits. Digits only: strtoull would silently
// wrap negatives and overflow.
bool ParseDigits(Arg text, size_t digits, uint64_t& out) {
  out = std::strtoull(text.c_str(), nullptr, 10);
  return text.size() <= digits && text.find_first_not_of("0123456789") == std::string::npos;
}

// One list entry: a name, a finite number above 0, or an integer above 0.
bool ParseEntry(Arg text, std::string& out) {
  out = text;
  return true;
}
bool ParseEntry(Arg text, double& out) {
  // isfinite: strtod happily parses "nan" and "inf", and neither fails the
  // > 0 test (NaN compares false to everything).
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return *end == '\0' && std::isfinite(out) && out > 0;
}
bool ParseEntry(Arg text, int64_t& out) {
  uint64_t n = 0;
  if (!ParseDigits(text, 18, n) || n == 0) return false;
  out = static_cast<int64_t>(n);
  return true;
}

// A comma-separated list, appended to `out`. Empty entries are reported
// before malformed ones (the usual victim is a doubled comma:
// "--alphas=1,,2").
template <typename T>
Error ParseList(Arg flag, Arg value, std::vector<T>& out) {
  if (value.front() == ',' || value.back() == ',' || value.find(",,") != std::string::npos) {
    return "empty entry in --" + flag + ": " + value;
  }
  std::istringstream entries(value);
  for (std::string entry; std::getline(entries, entry, ',');) {
    T v{};
    if (!ParseEntry(entry, v)) return "invalid --" + flag + " entry: " + entry;
    out.push_back(v);
  }
  return std::nullopt;
}

Error ParseSeed(Arg flag, Arg value, uint64_t& out) {
  if (ParseDigits(value, 19, out)) return std::nullopt;
  return "invalid --" + flag + ": " + value;
}

Error ParseCount(Arg flag, Arg value, int max, int& out) {
  uint64_t n = 0;
  if (!ParseDigits(value, 9, n)) return "invalid --" + flag + ": " + value;
  if (n < 1 || n > static_cast<uint64_t>(max)) {
    return "invalid --" + flag + " (want 1.." + std::to_string(max) + "): " + value;
  }
  out = static_cast<int>(n);
  return std::nullopt;
}

// A cap as the usage prints it: "%g" writes 1e6 as "1e+06".
std::string Cap(double cap) {
  char text[32];
  std::snprintf(text, sizeof text, "%g", cap);
  std::string s = text;
  if (const size_t e = s.find("e+"); e != std::string::npos) {
    s.erase(e + 1, s[e + 2] == '0' ? 2 : 1);
  }
  return s;
}

std::string SizeAxis(const char* what) {
  return std::string("grid axis: ") + what + " bytes, at most " + Cap(exp::kMaxKnobBytes);
}

// One row per flag: each subcommand that takes the flag parses its value
// through `set` and lists the flag in its --help. A '\n' in `help` starts an
// indented line.
struct Flag {
  const char* name;
  unsigned commands;  // Bit()s of the subcommands that take it
  const char* value;  // the value's placeholder, e.g. "<ms>"; nullptr = bare flag
  std::string help;
  Error (*set)(Arg flag, Arg value, Options& o);
};

// In --help order. Run conditions that run and sweep share are set on both
// specs; each subcommand reads its own.
const std::vector<Flag>& Flags() {
  static const std::vector<Flag> kFlags = {
      {"scenario", kRun, "<name>", "scenario to run (default: incast); see --list",
       [](Arg, Arg v, Options& o) { o.point.scenario = v; return Error(); }},
      {"bm", kRun, "<scheme>", "BM scheme (default: occamy); see --list",
       [](Arg, Arg v, Options& o) { o.point.bm = v; return Error(); }},
      {"json", kRun, "<path>", "write the JSON result there (default: stdout)",
       [](Arg, Arg v, Options& o) { o.json_path = v; return Error(); }},
      {"trace", kRun, "<path>", "record a Chrome trace (OCCAMY_TRACE=ON builds)",
       [](Arg, Arg v, Options& o) { o.trace_path = v; return Error(); }},
      {"scenarios", kSweep, "<a,b,...>", "scenarios to run (required); see occamy_sim --list",
       [](Arg f, Arg v, Options& o) { return ParseList(f, v, o.sweep.scenarios); }},
      {"bms", kSweep, "<x,y,...>", "BM schemes to run (required)",
       [](Arg f, Arg v, Options& o) { return ParseList(f, v, o.sweep.bms); }},
      {"name", kFigure, "<fig>", "figure to reproduce (required); see --list",
       [](Arg, Arg v, Options& o) { o.figure = v; return Error(); }},
      {"seed", kRun, "<n>", "RNG seed (default: 1)",
       [](Arg f, Arg v, Options& o) { return ParseSeed(f, v, o.point.seed); }},
      {"seeds", kSweep | kFigure, "<n>",
       "seeds per cell, 1.." + std::to_string(kMaxSeeds) + " (default: 1)",
       [](Arg f, Arg v, Options& o) { return ParseCount(f, v, kMaxSeeds, o.sweep.seeds); }},
      {"base-seed", kSweep, "<n>", "first seed of each cell (default: 1)",
       [](Arg f, Arg v, Options& o) { return ParseSeed(f, v, o.sweep.base_seed); }},
      {"jobs", kSweep | kFigure, "<m>",
       "worker threads, 1.." + std::to_string(kMaxJobs) + " (default: 1)",
       [](Arg f, Arg v, Options& o) { return ParseCount(f, v, kMaxJobs, o.jobs); }},
      {"out", kSweep | kFigure, "<dir>", "output directory (default: sweep_out, figure_<name>)",
       [](Arg, Arg v, Options& o) { o.out_dir = v; return Error(); }},
      {"scale", kAll, "<s>", "smoke | default | full (default: OCCAMY_BENCH_SCALE)",
       [](Arg, Arg v, Options& o) -> Error {
         o.point.scale = o.sweep.scale = exp::ScaleByName(v);
         if (!o.point.scale) return "invalid --scale (want smoke|default|full): " + v;
         return std::nullopt;
       }},
      {"duration-ms", kAll, "<ms>",
       "traffic duration override, at most " + Cap(exp::kMaxDurationMs) + " ms",
       [](Arg, Arg v, Options& o) -> Error {
         // Its cap is checked with the other run inputs (exp::InputRangeError).
         if (!ParseEntry(v, o.point.duration_ms)) return "invalid --duration-ms: " + v;
         o.sweep.duration_ms = o.point.duration_ms;
         return std::nullopt;
       }},
      {"alphas", kRun | kSweep, "<a,b,...>",
       "alpha override, each at most " + Cap(exp::kMaxAlpha) +
           ": one for every\ntraffic class, or one per class (sweep: grid axis)",
       [](Arg f, Arg v, Options& o) {
         Error err = ParseList(f, v, o.point.alphas);
         o.sweep.alphas = o.point.alphas;
         return err;
       }},
      {"shards", kRun | kSweep, "<n>",
       "engine shards, 1.." + std::to_string(kMaxShards) +
           "; star/p4 scenarios take 1\n(results are the same for any n; default: 1)",
       [](Arg f, Arg v, Options& o) {
         Error err = ParseCount(f, v, kMaxShards, o.point.shards);
         o.sweep.shards = o.point.shards;
         return err;
       }},
      {"faults", kRun | kSweep, "<spec>",
       "fault schedule (README \"Fault injection\"), times\nat most " +
           Cap(static_cast<double>(fault::kMaxFaultTime / kSecond)) +
           "s; a sweep applies it to every point",
       [](Arg, Arg v, Options& o) -> Error {
         // Parsed eagerly, so a malformed schedule is a usage error (exit
         // 2) naming the offending token, not a mid-run failure.
         fault::FaultPlan plan;
         if (auto err = fault::ParseFaultPlan(v, &plan)) return err;
         o.point.faults = o.sweep.faults = v;
         return std::nullopt;
       }},
      {"bg-loads", kSweep, "<l,...>",
       "grid axis: background load, each at most " + Cap(exp::kMaxBgLoad),
       [](Arg f, Arg v, Options& o) { return ParseList(f, v, o.sweep.bg_loads); }},
      {"query-bytes", kSweep, "<b,...>", SizeAxis("incast query"),
       [](Arg f, Arg v, Options& o) { return ParseList(f, v, o.sweep.query_bytes); }},
      {"buffer-bytes", kSweep, "<b,...>", SizeAxis("p4/star shared-buffer"),
       [](Arg f, Arg v, Options& o) { return ParseList(f, v, o.sweep.buffer_bytes); }},
      {"bg-flow-bytes", kSweep, "<b,...>", SizeAxis("collective flow"),
       [](Arg f, Arg v, Options& o) { return ParseList(f, v, o.sweep.bg_flow_bytes); }},
      {"burst-bytes", kSweep, "<b,...>", SizeAxis("burst-lab burst"),
       [](Arg f, Arg v, Options& o) { return ParseList(f, v, o.sweep.burst_bytes); }},
      {"loss-rates", kSweep, "<r,...>", "grid axis: i.i.d. packet-loss rate, each in (0, 1)",
       [](Arg f, Arg v, Options& o) -> Error {
         if (auto err = ParseList(f, v, o.sweep.loss_rates)) return err;
         for (const double r : o.sweep.loss_rates) {
           if (r >= 1.0) return "invalid --loss-rates entry (want < 1): " + v;
         }
         return std::nullopt;
       }},
      {"degradation", kRun, nullptr,
       "also run the healthy twin (needs --faults) and\nemit healthy_<k>, delta_<k> and "
       "recovery fields",
       [](Arg, Arg, Options& o) { o.degradation = true; return Error(); }},
      {"list", kRun | kFigure, nullptr,
       "list scenarios, schemes and figures, then exit\n(figure --list: figures only)",
       [](Arg, Arg, Options& o) { o.list = true; return Error(); }},
      {"help", kAll, nullptr, "this message",
       [](Arg, Arg, Options& o) { o.help = true; return Error(); }},
  };
  return kFlags;
}

// The checks that need the whole command line.
Error CheckParsed(const Options& o) {
  if (o.command == Command::kSweep && !o.help) {
    if (o.sweep.scenarios.empty()) return "missing required --scenarios";
    if (o.sweep.bms.empty()) return "missing required --bms";
  }
  if (o.command == Command::kFigure && !o.help && !o.list && o.figure.empty()) {
    return "missing required --name (see --list)";
  }
  if (o.command == Command::kSweep || o.command == Command::kFigure) return std::nullopt;
  if (o.degradation && o.point.faults.empty()) {
    return "--degradation needs --faults (it compares against the healthy twin)";
  }
  if (std::string err = exp::InputRangeError(o.point); !err.empty()) return err;
  // Unknown scenario names are reported by the run itself.
  if (const exp::ScenarioInfo* entry = exp::ScenarioByName(o.point.scenario)) {
    if (std::string err = exp::ShardsError(*entry, o.point.shards); !err.empty()) return err;
    if (std::string err = exp::AlphasError(*entry, o.point.alphas.size()); !err.empty()) {
      return err;
    }
  }
  return std::nullopt;
}

// Writes `path` through `write`; reports and returns false when the file
// cannot be opened.
template <typename Write>
bool WriteFile(const char* label, const std::string& path, Write write) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", label, path.c_str());
    return false;
  }
  write(out);
  return true;
}

// Runs a sweep or figure grid, streams progress to stderr, writes
// runs.jsonl and summary.csv under the output directory.
int RunGrid(const Options& o) {
  const char* label = Of(o.command).label;
  exp::SweepSpec spec = o.sweep;
  std::string out_dir = o.out_dir.empty() ? "sweep_out" : o.out_dir;
  if (o.command == Command::kFigure) {
    const exp::FigureDef* figure = exp::FigureByName(o.figure);
    if (figure == nullptr) {
      std::fprintf(stderr, "%s: unknown figure: %s (see --list)\n", label, o.figure.c_str());
      return 2;
    }
    // A figure fixes the grid; the run conditions are the command line's.
    spec = figure->make();
    spec.scale = o.sweep.scale;
    spec.seeds = o.sweep.seeds;
    spec.duration_ms = o.sweep.duration_ms;
    if (o.out_dir.empty()) out_dir = "figure_" + o.figure;
  }
  std::vector<exp::SweepPoint> points;
  if (const auto err = exp::ExpandSweep(spec, points)) {
    std::fprintf(stderr, "%s: %s\n", label, err->c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "%s: cannot create %s: %s\n", label, out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  exp::SweepRunOptions run_options;
  run_options.jobs = o.jobs;
  run_options.warn = [&](const std::string& message) {
    std::fprintf(stderr, "%s: warning: %s\n", label, message.c_str());
  };
  run_options.progress = [&](size_t done, size_t total, const exp::RunRecord& rec) {
    std::fprintf(stderr, "%s: [%zu/%zu] %s%s%s\n", label, done, total,
                 rec.point.run_key.c_str(), rec.ok ? "" : " FAILED: ",
                 rec.ok ? "" : rec.error.c_str());
  };
  const std::vector<exp::RunRecord> records = exp::RunSweep(points, run_options);
  const auto failed = std::count_if(records.begin(), records.end(),
                                    [](const exp::RunRecord& rec) { return !rec.ok; });

  const std::string jsonl_path = out_dir + "/runs.jsonl";
  const std::string csv_path = out_dir + "/summary.csv";
  if (!WriteFile(label, jsonl_path, [&](std::ostream& out) { exp::WriteJsonl(records, out); }) ||
      !WriteFile(label, csv_path, [&](std::ostream& out) {
        exp::WriteSummaryCsv(exp::Aggregate(records), out);
      })) {
    return 1;
  }
  // stderr like every other progress line: stdout stays pure machine
  // output so `occamy_sim sweep ... > pipe` composes.
  std::fprintf(stderr, "%s: %zu runs (%zu failed) -> %s, %s\n", label, records.size(),
               static_cast<size_t>(failed), jsonl_path.c_str(), csv_path.c_str());
  return failed == 0 ? 0 : 1;
}

// Runs one point (run, profile), with its trace and profile report.
int RunOne(const Options& o) {
  // Tracing brackets the whole run: armed before, drained after. The
  // profile subcommand implies it (the report aggregates the trace).
  const bool profile = o.command == Command::kProfile;
  const bool tracing = profile || !o.trace_path.empty();
  if (tracing && !obs::kTraceCompiled) {
    std::fprintf(stderr,
                 "occamy_sim: tracing is compiled out of this binary; rebuild "
                 "with -DOCCAMY_TRACE=ON\n");
    return 2;
  }
  if (tracing) obs::TraceRecorder::Get().Start(o.point.shards);

  const exp::PointResult result = RunScenario(o);
  if (!result.ok) {
    if (tracing) obs::TraceRecorder::Get().Clear();
    std::fprintf(stderr, "occamy_sim: %s\n", result.error.c_str());
    return 1;
  }

  if (tracing) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
    recorder.Stop();
    const std::vector<obs::TraceEvent> events = recorder.SortedEvents();
    if (!o.trace_path.empty()) {
      if (!WriteFile("occamy_sim", o.trace_path, [&](std::ostream& out) {
            obs::WriteChromeTrace(events, recorder.shards(), out);
          })) {
        return 1;
      }
      std::fprintf(stderr, "occamy_sim: %zu trace events -> %s\n", events.size(),
                   o.trace_path.c_str());
    }
    if (profile) {
      const obs::ProfileReport report =
          obs::BuildProfileReport(events, recorder.shards(), recorder.dropped());
      std::fputs(obs::FormatProfileReport(report).c_str(), stdout);
    }
    recorder.Clear();
  }

  if (!o.json_path.empty()) {
    if (!WriteFile("occamy_sim", o.json_path,
                   [&](std::ostream& out) { out << result.metrics.ToJson() << "\n"; })) {
      return 1;
    }
    // Progress chatter goes to stderr: stdout is reserved for machine
    // output (the JSON result or the profile report).
    std::fprintf(stderr, "occamy_sim: %s under %s done, JSON -> %s\n",
                 o.point.scenario.c_str(), o.point.bm.c_str(), o.json_path.c_str());
  } else if (!profile) {
    std::printf("%s\n", result.metrics.ToJson().c_str());
  }
  return 0;
}

}  // namespace

std::optional<std::string> Parse(int argc, const char* const* argv, Options& out) {
  int first = 1;
  for (size_t c = 0; argc >= 2 && c < std::size(kSubcommands); ++c) {
    if (std::string(argv[1]) == kSubcommands[c].name) {
      out.command = static_cast<Command>(c);
      first = 2;
    }
  }
  std::set<std::string> seen;
  for (int i = first; i < argc; ++i) {
    const std::string arg = std::string(argv[i]) == "-h" ? "--help" : argv[i];
    if (arg.rfind("--", 0) != 0 || arg.size() == 2 || arg[2] == '=') {
      return "unrecognized argument: " + arg;
    }
    const size_t eq = arg.find('=');
    const bool has_value = eq != std::string::npos;
    const std::string name = arg.substr(2, has_value ? eq - 2 : std::string::npos);
    const auto flag = std::find_if(Flags().begin(), Flags().end(),
                                   [&](const Flag& f) { return name == f.name; });
    if (flag == Flags().end()) {
      return has_value ? "unknown option: --" + name : "unrecognized argument: " + arg;
    }
    if ((flag->commands & Bit(out.command)) == 0) {
      // Only sweep lacks --list.
      return "unknown option: --" + name + (name == "list" ? " (use `occamy_sim --list`)" : "");
    }
    std::string value;
    if (flag->value == nullptr) {
      if (has_value) return "--" + name + " takes no value";
    } else {
      if (!has_value) return "unrecognized argument: " + arg;
      value = arg.substr(eq + 1);
      if (value.empty()) return "empty value for --" + name;
      // Last-wins on repeated flags silently discards the earlier value;
      // report it instead, since it is almost always a typo in a long
      // command line. Repeated bare flags stay harmless.
      if (!seen.insert(name).second) {
        return "duplicate option --" + name + " (each option may be given once)";
      }
    }
    if (auto err = flag->set(name, value, out)) return err;
  }
  return CheckParsed(out);
}

std::string Usage(Command command) {
  const auto text = [](const Flag& f) {
    std::string row = std::string("  --") + f.name;
    if (f.value != nullptr) row.append("=").append(f.value);
    return row;
  };
  size_t column = 0;
  for (const Flag& f : Flags()) {
    if (f.commands & Bit(command)) column = std::max(column, text(f).size() + 2);
  }
  std::string out = Of(command).synopsis;
  out += "\nOptions:\n";
  for (const Flag& f : Flags()) {
    if ((f.commands & Bit(command)) == 0) continue;
    std::string row = text(f);
    row.resize(column, ' ');
    for (const char c : f.help) {
      row += c;
      if (c == '\n') row.append(column, ' ');
    }
    out += row + "\n";
  }
  return out +
         "Values above a cap exit 2: they would overflow simulated time or byte\n"
         "counters, or pregenerate an effectively unbounded arrival stream.\n";
}

exp::PointResult RunScenario(const Options& opts) {
  exp::PointResult point = exp::RunPoint(opts.point);
  if (!point.ok || !opts.degradation) return point;

  // Degradation report: re-run the identical point with the fault schedule
  // cleared (same seed, same engine) and append healthy_<k> + delta_<k>
  // (faulted minus healthy) for the metrics that tell the availability
  // story. Only keys the platform actually emitted are compared.
  exp::PointSpec healthy = opts.point;
  healthy.faults.clear();
  healthy.loss_rate = 0;
  const exp::PointResult base = exp::RunPoint(healthy);
  if (!base.ok) {
    point.ok = false;
    point.error = "degradation baseline failed: " + base.error;
    return point;
  }
  static const char* const kDegradationKeys[] = {
      "goodput_gbps", "qct_avg_ms",      "qct_p99_ms",  "drops",          "rtos",
      "expelled",     "delivered_bytes", "burst_drops", "burst_loss_rate",
  };
  for (const char* key : kDegradationKeys) {
    const exp::Metrics::Value* faulted = point.metrics.Find(key);
    const exp::Metrics::Value* h = base.metrics.Find(key);
    if (faulted == nullptr || h == nullptr || !faulted->IsNumeric() || !h->IsNumeric()) {
      continue;
    }
    const std::string name = key;
    if (faulted->kind == exp::Metrics::Kind::kInt && h->kind == exp::Metrics::Kind::kInt) {
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
  if (point.delivered_by_ms.empty() && base.delivered_by_ms.empty()) return point;
  fault::FaultPlan plan;
  if (auto perr = fault::ParseFaultPlan(opts.point.faults, &plan)) {
    point.ok = false;
    point.error = *perr;  // unreachable after Parse, but explicit
    return point;
  }
  Time onset = plan.events.empty() ? 0 : plan.events.front().at;
  for (const auto& ev : plan.events) onset = std::min(onset, ev.at);
  const double onset_ms = ToMilliseconds(onset);
  const fault::RecoveryReport rec =
      fault::ComputeRecovery(point.delivered_by_ms, base.delivered_by_ms, onset_ms);
  point.metrics.Set("fault_onset_ms", onset_ms);
  point.metrics.Set("first_delivery_after_fault_ms", rec.first_delivery_after_fault_ms);
  point.metrics.Set("recovery_time_ms", rec.recovery_time_ms);
  point.metrics.Set("recovered", int64_t{rec.recovered ? 1 : 0});
  return point;
}

int Main(int argc, const char* const* argv) {
  Options opts;
  if (const auto err = Parse(argc, argv, opts)) {
    std::fprintf(stderr, "%s: %s\n\n%s", Of(opts.command).label, err->c_str(),
                 Usage(opts.command).c_str());
    return 2;
  }
  if (opts.help) {
    std::fputs(Usage(opts.command).c_str(), stdout);
    return 0;
  }
  if (opts.list) {
    if (opts.command != Command::kFigure) {
      std::printf("Scenarios:\n");
      for (const auto& e : exp::Scenarios()) {
        std::printf("  %-18s %-8s %s\n", e.name, e.platform, e.description);
      }
      std::printf("BM schemes:\n ");
      for (const auto& name : exp::SchemeNames()) std::printf(" %s", name.c_str());
      std::printf("\n");
    }
    std::printf("Figures:\n");
    for (const auto& f : exp::Figures()) std::printf("  %-8s %s\n", f.name, f.title);
    return 0;
  }
  if (opts.command == Command::kSweep || opts.command == Command::kFigure) {
    return RunGrid(opts);
  }
  return RunOne(opts);
}

}  // namespace occamy::cli
