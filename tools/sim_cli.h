// occamy_sim — scenario-runner CLI.
//
// Wraps the experiment subsystem (src/exp) into one binary:
//
//   occamy_sim --scenario=incast --bm=occamy --json=out.json   # single run
//   occamy_sim sweep --scenarios=... --bms=... --jobs=4 ...    # whole grid
//   occamy_sim figure --name=fig12                             # paper figure
//
// The CLI logic lives in this small library so tests/cli_test.cc can
// exercise parsing and scenario execution in-process; occamy_sim_main.cc is
// a thin wrapper around Main(). The sweep/figure subcommands are in
// tools/sweep_cli.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace occamy::cli {

struct SimOptions {
  std::string scenario = "incast";
  std::string bm = "occamy";
  std::string json_path;        // empty = print JSON to stdout
  std::string trace_path;       // non-empty = record a Chrome trace there
  std::string scale;            // smoke | default | full; empty = env/default
  uint64_t seed = 1;
  double duration_ms = 0;       // 0 = scenario default
  std::vector<double> alphas;   // per-class override; empty = scheme default
  int shards = 0;               // fabric: 0 = single-threaded, N = sharded engine
  int window_batch = 0;         // sharded engine: 0 = auto, 1 = legacy, N = fixed
  std::string faults;           // fault schedule (src/fault grammar); empty = healthy
  bool degradation = false;     // also run the healthy twin; emit healthy_/delta_ fields
  bool profile = false;         // `profile` subcommand: print the trace report
  bool list = false;
  bool help = false;
};

// Parses argv into `out`. Returns an error message on malformed input
// (including repeated options and empty list entries), std::nullopt on
// success. Does not validate scenario/scheme names (that happens in
// RunScenario, so --list works with anything else on the line).
std::optional<std::string> ParseArgs(int argc, const char* const* argv, SimOptions& out);

// Splits a comma-separated list of positive doubles/integers, reporting
// empty entries ("1,,2") and malformed values explicitly. Appends to `out`;
// returns an error message or std::nullopt. Shared by the single-run and
// sweep parsers.
std::optional<std::string> ParseDoubleList(const std::string& flag,
                                           const std::string& value,
                                           std::vector<double>& out);
std::optional<std::string> ParseInt64List(const std::string& flag,
                                          const std::string& value,
                                          std::vector<int64_t>& out);
// Same splitting for names; rejects empty entries only.
std::optional<std::string> ParseNameList(const std::string& flag,
                                         const std::string& value,
                                         std::vector<std::string>& out);
// A --duration-ms value: a finite number above 0. Its cap is checked with
// the other run inputs (exp::InputRangeError). Shared by run, sweep and
// figure.
std::optional<std::string> ParseDurationMs(const std::string& value, double& out);

struct SimResult {
  bool ok = false;
  std::string error;  // set when !ok
  std::string json;   // one JSON object, set when ok
};

// Runs `opts.scenario` under `opts.bm` and renders the result as JSON.
// Scale is threaded explicitly into the run (never via setenv), so
// concurrent RunScenario calls are safe.
SimResult RunScenario(const SimOptions& opts);

// Registered names, for --list and for tests that sweep every scheme.
std::vector<std::string> ScenarioNames();
std::vector<std::string> SchemeNames();

std::string UsageString();

// Full CLI entry point (parse, run, emit). Dispatches the `sweep` and
// `figure` subcommands. Returns the process exit code.
int Main(int argc, const char* const* argv);

}  // namespace occamy::cli
