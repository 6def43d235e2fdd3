#include "tools/sweep_cli.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "src/exp/figures.h"
#include "src/exp/sinks.h"
#include "src/exp/sweep_runner.h"
#include "src/fault/fault_plan.h"
#include "tools/sim_cli.h"

namespace occamy::cli {

namespace {

// Common flag plumbing for the two subcommand parsers: splits --key=value,
// rejects duplicates and empty values. Returns false (with `err` set) on
// malformed syntax; bare flags ("--help") yield an empty value.
bool NextFlag(const std::string& arg, std::set<std::string>& seen, std::string& key,
              std::string& value, std::string& err) {
  if (arg == "--help" || arg == "-h") {
    key = "help";
    value.clear();
    return true;
  }
  if (arg == "--list") {
    key = "list";
    value.clear();
    return true;
  }
  const auto eq = arg.find('=');
  if (arg.rfind("--", 0) != 0 || eq == std::string::npos || eq == 2) {
    err = "unrecognized argument: " + arg;
    return false;
  }
  key = arg.substr(2, eq - 2);
  value = arg.substr(eq + 1);
  if (value.empty()) {
    err = "empty value for --" + key;
    return false;
  }
  if (!seen.insert(key).second) {
    err = "duplicate option --" + key + " (each option may be given once)";
    return false;
  }
  return true;
}

std::optional<std::string> ParsePositiveInt(const std::string& flag,
                                            const std::string& value, int max,
                                            int& out) {
  if (value.find_first_not_of("0123456789") != std::string::npos || value.empty() ||
      value.size() > 9) {
    return "invalid --" + flag + ": " + value;
  }
  out = std::atoi(value.c_str());
  if (out < 1 || out > max) {
    return "invalid --" + flag + " (want 1.." + std::to_string(max) + "): " + value;
  }
  return std::nullopt;
}

// Runs an expanded grid, streams progress to stderr, writes runs.jsonl and
// summary.csv under `out_dir`. Shared by SweepMain and FigureMain.
int RunAndEmit(const std::vector<exp::SweepPoint>& points, int jobs,
               const std::string& out_dir, const char* label) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "occamy_sim %s: cannot create %s: %s\n", label,
                 out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  exp::SweepRunOptions run_options;
  run_options.jobs = jobs;
  run_options.warn = [&](const std::string& message) {
    std::fprintf(stderr, "occamy_sim %s: warning: %s\n", label, message.c_str());
  };
  run_options.progress = [&](size_t done, size_t total, const exp::RunRecord& rec) {
    std::fprintf(stderr, "occamy_sim %s: [%zu/%zu] %s%s%s\n", label, done, total,
                 rec.point.run_key.c_str(), rec.ok ? "" : " FAILED: ",
                 rec.ok ? "" : rec.error.c_str());
  };
  const std::vector<exp::RunRecord> records = exp::RunSweep(points, run_options);

  size_t failed = 0;
  for (const auto& rec : records) {
    if (!rec.ok) ++failed;
  }

  const std::string jsonl_path = out_dir + "/runs.jsonl";
  const std::string csv_path = out_dir + "/summary.csv";
  {
    std::ofstream out(jsonl_path);
    if (!out) {
      std::fprintf(stderr, "occamy_sim %s: cannot write %s\n", label, jsonl_path.c_str());
      return 1;
    }
    exp::WriteJsonl(records, out);
  }
  {
    std::ofstream out(csv_path);
    if (!out) {
      std::fprintf(stderr, "occamy_sim %s: cannot write %s\n", label, csv_path.c_str());
      return 1;
    }
    exp::WriteSummaryCsv(exp::Aggregate(records), out);
  }

  // stderr like every other progress line: stdout stays pure machine
  // output so `occamy_sim sweep ... > pipe` composes.
  std::fprintf(stderr, "occamy_sim %s: %zu runs (%zu failed) -> %s, %s\n", label,
               records.size(), failed, jsonl_path.c_str(), csv_path.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace

std::string SweepUsageString() {
  std::ostringstream out;
  out << "Usage: occamy_sim sweep --scenarios=<a,b> --bms=<x,y> [options]\n"
         "\n"
         "Expands the cartesian grid scenarios x bms x knobs x seeds, runs\n"
         "it across worker threads, and writes runs.jsonl (one JSON object\n"
         "per run, sorted by run key) plus summary.csv (per-cell mean/p99\n"
         "across seeds) into the output directory.\n"
         "\n"
         "Options:\n"
         "  --scenarios=<a,b,...>     scenarios to run (required); see --list\n"
         "  --bms=<x,y,...>           BM schemes to run (required)\n"
         "  --seeds=<n>               seeds per cell, base-seed.. (default: 1)\n"
         "  --base-seed=<n>           first seed (default: 1)\n"
         "  --jobs=<m>                worker threads (default: 1)\n"
         "  --out=<dir>               output directory (default: sweep_out)\n"
         "  --scale=<s>               smoke | default | full\n"
         "  --duration-ms=<ms>        traffic duration override (at most 1e6)\n"
         "  --shards=<n>              run every point on the partition-parallel\n"
         "                            engine with n shards each (results unchanged;\n"
         "                            star/p4 scenarios take only n=1; jobs is\n"
         "                            capped so jobs x shards fits the CPU)\n"
         "  --window-batch=<k>        sharded engine: windows per plan barrier\n"
         "                            (auto = adaptive, 1 = legacy, 2..16 = fixed;\n"
         "                            results unchanged at every setting)\n"
         "  --faults=<spec>           fault schedule applied to every point (run\n"
         "                            condition, not a grid axis; src/fault grammar)\n"
         "Sweep dimensions (each value adds a grid axis):\n"
         "  --alphas=<a,...>          alpha applied to every traffic class (at most 1e4)\n"
         "  --bg-loads=<l,...>        background load fraction (at most 100)\n"
         "  --query-bytes=<b,...>     incast query size (star scenarios)\n"
         "  --buffer-bytes=<b,...>    shared-buffer size (p4/star scenarios)\n"
         "  --bg-flow-bytes=<b,...>   collective flow size (alltoall/allreduce)\n"
         "  --burst-bytes=<b,...>     measured burst size (burst scenario)\n"
         "                            (each size at most 1e9 bytes)\n"
         "  --loss-rates=<r,...>      i.i.d. packet-loss rate, each in (0, 1)\n"
         "Larger values exit 2: they would overflow simulated time or byte\n"
         "counters, or pregenerate an effectively unbounded arrival stream.\n";
  return out.str();
}

std::string FigureUsageString() {
  std::ostringstream out;
  out << "Usage: occamy_sim figure --name=<fig> [options]\n"
         "\n"
         "Runs a registered paper-figure grid through the sweep engine and\n"
         "writes runs.jsonl + summary.csv (one row per scheme x cell).\n"
         "\n"
         "Options:\n"
         "  --name=<fig>        figure to reproduce; see --list\n"
         "  --jobs=<m>          worker threads (default: 1)\n"
         "  --out=<dir>         output directory (default: figure_<name>)\n"
         "  --scale=<s>         smoke | default | full\n"
         "  --seeds=<n>         seeds per cell (default: 1)\n"
         "  --duration-ms=<ms>  traffic duration override (at most 1e6)\n"
         "  --list              list registered figures, then exit\n";
  return out.str();
}

std::optional<std::string> ParseSweepArgs(int argc, const char* const* argv,
                                          SweepOptions& out) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string key, value, err;
    if (!NextFlag(argv[i], seen, key, value, err)) return err;
    if (key == "help") {
      out.help = true;
    } else if (key == "list") {
      return "unknown option: --list (use `occamy_sim --list`)";
    } else if (key == "scenarios") {
      if (auto e = ParseNameList(key, value, out.spec.scenarios)) return e;
    } else if (key == "bms") {
      if (auto e = ParseNameList(key, value, out.spec.bms)) return e;
    } else if (key == "seeds") {
      if (auto e = ParsePositiveInt(key, value, 100000, out.spec.seeds)) return e;
    } else if (key == "base-seed") {
      if (value.find_first_not_of("0123456789") != std::string::npos ||
          value.size() > 19) {
        return "invalid --base-seed: " + value;
      }
      out.spec.base_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "jobs") {
      if (auto e = ParsePositiveInt(key, value, 64, out.jobs)) return e;
    } else if (key == "shards") {
      if (auto e = ParsePositiveInt(key, value, 64, out.spec.shards)) return e;
    } else if (key == "window-batch") {
      if (value == "auto") {
        out.spec.window_batch = 0;
      } else if (auto e = ParsePositiveInt(key, value, 16, out.spec.window_batch)) {
        return "invalid --window-batch (want auto|1..16): " + value;
      }
    } else if (key == "out") {
      out.out_dir = value;
    } else if (key == "scale") {
      const auto scale = exp::ScaleByName(value);
      if (!scale.has_value()) {
        return "invalid --scale (want smoke|default|full): " + value;
      }
      out.spec.scale = scale;
    } else if (key == "duration-ms") {
      if (auto e = ParseDurationMs(value, out.spec.duration_ms)) return e;
    } else if (key == "alphas") {
      if (auto e = ParseDoubleList(key, value, out.spec.alphas)) return e;
    } else if (key == "bg-loads") {
      if (auto e = ParseDoubleList(key, value, out.spec.bg_loads)) return e;
    } else if (key == "query-bytes") {
      if (auto e = ParseInt64List(key, value, out.spec.query_bytes)) return e;
    } else if (key == "buffer-bytes") {
      if (auto e = ParseInt64List(key, value, out.spec.buffer_bytes)) return e;
    } else if (key == "bg-flow-bytes") {
      if (auto e = ParseInt64List(key, value, out.spec.bg_flow_bytes)) return e;
    } else if (key == "burst-bytes") {
      if (auto e = ParseInt64List(key, value, out.spec.burst_bytes)) return e;
    } else if (key == "loss-rates") {
      if (auto e = ParseDoubleList(key, value, out.spec.loss_rates)) return e;
      for (const double r : out.spec.loss_rates) {
        if (r >= 1.0) return "invalid --loss-rates entry (want < 1): " + value;
      }
    } else if (key == "faults") {
      fault::FaultPlan plan;
      if (auto perr = fault::ParseFaultPlan(value, &plan)) return *perr;
      out.spec.faults = value;
    } else {
      return "unknown option: --" + key;
    }
  }
  if (!out.help) {
    if (out.spec.scenarios.empty()) return "missing required --scenarios";
    if (out.spec.bms.empty()) return "missing required --bms";
  }
  return std::nullopt;
}

std::optional<std::string> ParseFigureArgs(int argc, const char* const* argv,
                                           FigureOptions& out) {
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string key, value, err;
    if (!NextFlag(argv[i], seen, key, value, err)) return err;
    if (key == "help") {
      out.help = true;
    } else if (key == "list") {
      out.list = true;
    } else if (key == "name") {
      out.name = value;
    } else if (key == "jobs") {
      if (auto e = ParsePositiveInt(key, value, 64, out.jobs)) return e;
    } else if (key == "out") {
      out.out_dir = value;
    } else if (key == "scale") {
      if (!exp::ScaleByName(value).has_value()) {
        return "invalid --scale (want smoke|default|full): " + value;
      }
      out.scale = value;
    } else if (key == "seeds") {
      if (auto e = ParsePositiveInt(key, value, 100000, out.seeds)) return e;
    } else if (key == "duration-ms") {
      if (auto e = ParseDurationMs(value, out.duration_ms)) return e;
    } else {
      return "unknown option: --" + key;
    }
  }
  if (!out.help && !out.list && out.name.empty()) {
    return "missing required --name (see --list)";
  }
  return std::nullopt;
}

int SweepMain(int argc, const char* const* argv) {
  SweepOptions options;
  if (const auto err = ParseSweepArgs(argc, argv, options)) {
    std::fprintf(stderr, "occamy_sim sweep: %s\n\n%s", err->c_str(),
                 SweepUsageString().c_str());
    return 2;
  }
  if (options.help) {
    std::fputs(SweepUsageString().c_str(), stdout);
    return 0;
  }
  std::vector<exp::SweepPoint> points;
  if (const auto err = exp::ExpandSweep(options.spec, points)) {
    std::fprintf(stderr, "occamy_sim sweep: %s\n", err->c_str());
    return 2;
  }
  return RunAndEmit(points, options.jobs, options.out_dir, "sweep");
}

int FigureMain(int argc, const char* const* argv) {
  FigureOptions options;
  if (const auto err = ParseFigureArgs(argc, argv, options)) {
    std::fprintf(stderr, "occamy_sim figure: %s\n\n%s", err->c_str(),
                 FigureUsageString().c_str());
    return 2;
  }
  if (options.help) {
    std::fputs(FigureUsageString().c_str(), stdout);
    return 0;
  }
  if (options.list) {
    std::printf("Figures:\n");
    for (const auto& f : exp::Figures()) std::printf("  %-8s %s\n", f.name, f.title);
    return 0;
  }
  const exp::FigureDef* figure = exp::FigureByName(options.name);
  if (figure == nullptr) {
    std::fprintf(stderr, "occamy_sim figure: unknown figure: %s (see --list)\n",
                 options.name.c_str());
    return 2;
  }
  exp::SweepSpec spec = figure->make();
  if (!options.scale.empty()) spec.scale = exp::ScaleByName(options.scale);
  if (options.seeds > 0) spec.seeds = options.seeds;
  if (options.duration_ms > 0) spec.duration_ms = options.duration_ms;

  std::vector<exp::SweepPoint> points;
  if (const auto err = exp::ExpandSweep(spec, points)) {
    std::fprintf(stderr, "occamy_sim figure: %s\n", err->c_str());
    return 2;
  }
  const std::string out_dir =
      options.out_dir.empty() ? "figure_" + options.name : options.out_dir;
  return RunAndEmit(points, options.jobs, out_dir, "figure");
}

}  // namespace occamy::cli
