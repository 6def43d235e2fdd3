// occamy_sim — scenario-runner CLI over the experiment subsystem (src/exp):
//
//   occamy_sim --scenario=incast --bm=occamy --json=out.json   # single run
//   occamy_sim profile --scenario=incast                       # engine profile
//   occamy_sim sweep --scenarios=... --bms=... --jobs=4 ...    # whole grid
//   occamy_sim figure --name=fig12                             # paper figure
//
// One table of flags (tools/sim_cli.cc) parses all four subcommands and
// prints their --help. The logic lives in this library so tests can drive
// it in-process; occamy_sim_main.cc only calls Main().
#pragma once

#include <optional>
#include <string>

#include "src/exp/sweep.h"

namespace occamy::cli {

enum class Command { kRun, kProfile, kSweep, kFigure };

// Everything one command line sets.
struct Options {
  Command command = Command::kRun;
  exp::PointSpec point;      // run, profile
  exp::SweepSpec sweep;      // sweep; figure takes scale, seeds and duration_ms
  std::string figure;        // figure --name
  std::string json_path;     // empty = print JSON to stdout
  std::string trace_path;    // non-empty = record a Chrome trace there
  std::string out_dir;       // empty = sweep_out, or figure_<name>
  int jobs = 1;              // sweep and figure worker threads
  bool degradation = false;  // also run the healthy twin; emit healthy_/delta_ fields
  bool list = false;
  bool help = false;
};

// Parses argv into `out`: argv[0] is the program, then an optional
// subcommand (run, profile, sweep or figure; default run) and its flags.
// Returns the error for malformed input (an unknown, repeated or empty
// option, a value on a bare flag, an empty list entry, a run input above
// its cap, a missing required flag), std::nullopt on success. Names, and
// the caps of a sweep or figure grid, are checked by the run, so --list
// works with anything else on the line.
std::optional<std::string> Parse(int argc, const char* const* argv, Options& out);

// The --help text of `command`, printed from the flag table.
std::string Usage(Command command);

// Runs `opts.point`, and under `opts.degradation` its healthy twin, whose
// values and deltas (plus time-to-recovery) join the metrics. Scale is
// threaded explicitly into the run (never via setenv), so concurrent calls
// are safe.
exp::PointResult RunScenario(const Options& opts);

// The whole CLI (parse, run, emit). Returns the process exit code: 0 on
// success, 1 when a run failed, 2 on usage errors.
int Main(int argc, const char* const* argv);

}  // namespace occamy::cli
