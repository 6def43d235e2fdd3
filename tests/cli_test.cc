// Smoke tests for the occamy_sim scenario-runner CLI (tools/sim_cli.h):
// argument parsing through the flag table, error paths, the --trace and
// --degradation reports, and a tiny run of the incast scenario under every
// registered BM scheme asserting valid JSON with nonzero delivered bytes.
// Checks that need the real binary's files or stdout are in
// tests/cli_smoke.py.
#include "tools/sim_cli.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace occamy::cli {
namespace {

// Extracts a numeric field from the CLI's flat JSON output.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key << " in " << json;
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

bool JsonHasString(const std::string& json, const std::string& key,
                   const std::string& value) {
  return json.find("\"" + key + "\":\"" + value + "\"") != std::string::npos;
}

TEST(CliParse, Defaults) {
  const char* argv[] = {"occamy_sim"};
  Options opts;
  EXPECT_FALSE(Parse(1, argv, opts).has_value());
  EXPECT_EQ(opts.command, Command::kRun);
  EXPECT_EQ(opts.point.scenario, "incast");
  EXPECT_EQ(opts.point.bm, "occamy");
  EXPECT_TRUE(opts.json_path.empty());
}

TEST(CliParse, AllOptions) {
  const char* argv[] = {"occamy_sim",          "--scenario=choking", "--bm=dt",
                        "--json=/tmp/out.json", "--scale=smoke",      "--seed=7",
                        "--duration-ms=12.5",   "--alphas=8,1,1,1,1,1,1,1"};
  Options opts;
  EXPECT_FALSE(Parse(8, argv, opts).has_value());
  EXPECT_EQ(opts.point.scenario, "choking");
  EXPECT_EQ(opts.point.bm, "dt");
  EXPECT_EQ(opts.json_path, "/tmp/out.json");
  EXPECT_TRUE(opts.point.scale == exp::BenchScale::kSmoke);
  EXPECT_EQ(opts.point.seed, 7u);
  EXPECT_DOUBLE_EQ(opts.point.duration_ms, 12.5);
  EXPECT_EQ(opts.point.alphas, (std::vector<double>{8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}));
}

TEST(CliParse, ShardsFlag) {
  const char* argv[] = {"occamy_sim", "--scenario=websearch", "--shards=64"};
  Options opts;
  EXPECT_FALSE(Parse(3, argv, opts).has_value());
  EXPECT_EQ(opts.point.shards, 64);

  for (const char* bad : {"--shards=0", "--shards=65", "--shards=abc", "--shards=-1"}) {
    const char* bad_argv[] = {"occamy_sim", "--scenario=websearch", bad};
    Options bad_opts;
    EXPECT_TRUE(Parse(3, bad_argv, bad_opts).has_value()) << bad;
  }
}

// Star and P4 scenarios model one shared-memory switch: one shard runs
// them, more is a usage error (exit 2) from run, profile and sweep that
// names the scenario.
TEST(CliParse, StarAndP4RejectShardsAboveOne) {
  for (const std::string scenario : {"burst_absorption", "burst"}) {
    const std::string flag = "--scenario=" + scenario;
    const char* one[] = {"occamy_sim", flag.c_str(), "--shards=1"};
    Options one_opts;
    EXPECT_FALSE(Parse(3, one, one_opts).has_value()) << scenario;
    const char* two[] = {"occamy_sim", "--shards=2", flag.c_str()};
    Options two_opts;
    const auto err = Parse(3, two, two_opts);
    ASSERT_TRUE(err.has_value()) << scenario;
    EXPECT_NE(err->find("'" + scenario + "'"), std::string::npos) << *err;
  }
  for (const char* sub : {"run", "profile"}) {
    const char* argv[] = {"occamy_sim", sub, "--scenario=burst_absorption", "--shards=2"};
    EXPECT_EQ(Main(4, argv), 2) << sub;
  }
  const char* sweep[] = {"occamy_sim", "sweep", "--scenarios=burst", "--bms=dt",
                         "--shards=2"};
  testing::internal::CaptureStderr();
  EXPECT_EQ(Main(5, sweep), 2);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("'burst'"), std::string::npos) << err;
}

// One alpha sets every traffic class; a longer list gives one per class.
// Any other length is a usage error naming --alphas and the class count.
TEST(CliParse, AlphasTakeOneEntryOrOnePerClass) {
  for (const char* ok : {"--alphas=2", "--alphas=2,4"}) {
    const char* argv[] = {"occamy_sim", "--scenario=isolation", ok};
    Options opts;
    EXPECT_FALSE(Parse(3, argv, opts).has_value()) << ok;
  }
  const struct {
    const char* scenario;
    const char* classes;
  } rows[] = {{"--scenario=burst", "has 1 traffic class"},
              {"--scenario=isolation", "has 2 traffic classes"}};
  for (const auto& row : rows) {
    const char* argv[] = {"occamy_sim", "run", row.scenario, "--alphas=1,2,3"};
    testing::internal::CaptureStderr();
    EXPECT_EQ(Main(4, argv), 2) << row.scenario;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--alphas has 3 entries"), std::string::npos) << err;
    EXPECT_NE(err.find(row.classes), std::string::npos) << err;
  }
  exp::PointSpec spec;
  spec.scenario = "choking";
  spec.alphas = {8, 1};
  const exp::PointResult r = exp::RunPoint(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("has 8 traffic classes"), std::string::npos) << r.error;
}

// Adaptive batching is the engine's only window planner, so no subcommand
// takes a batch setting.
TEST(CliParse, WindowBatchFlag) {
  const std::vector<std::vector<const char*>> commands = {
      {"occamy_sim", "run", "--scenario=burst", "--window-batch=4"},
      {"occamy_sim", "profile", "--scenario=burst", "--window-batch=4"},
      {"occamy_sim", "sweep", "--scenarios=burst", "--bms=dt", "--window-batch=4"},
  };
  for (const auto& argv : commands) {
    testing::internal::CaptureStderr();
    const int code = Main(static_cast<int>(argv.size()), argv.data());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 2) << argv[1];
    EXPECT_NE(err.find("unknown option: --window-batch"), std::string::npos) << err;
  }
}

// Pins each subcommand's flags: each is accepted by exactly its
// subcommands, is an unknown option to every other, and is listed in
// exactly its subcommands' --help, whose lines fit in 79 columns.
TEST(CliParse, EachSubcommandTakesExactlyItsFlags) {
  const std::set<std::string> run = {
      "scenario", "bm",     "json",   "trace",       "scale", "seed", "duration-ms",
      "alphas",   "shards", "faults", "degradation", "list",  "help"};
  const std::set<std::string> sweep = {
      "scenarios",   "bms",         "seeds",         "base-seed",   "jobs",      "out",
      "scale",       "duration-ms", "shards",        "faults",      "alphas",    "bg-loads",
      "query-bytes", "buffer-bytes", "bg-flow-bytes", "burst-bytes", "loss-rates", "help"};
  const std::set<std::string> figure = {"name",  "jobs",        "out",  "scale",
                                        "seeds", "duration-ms", "list", "help"};
  const struct {
    const char* name;
    Command command;
    const std::set<std::string>& flags;
  } subcommands[] = {{"run", Command::kRun, run},
                     {"profile", Command::kProfile, run},
                     {"sweep", Command::kSweep, sweep},
                     {"figure", Command::kFigure, figure}};
  // A valid value for every flag that takes one; the others are bare.
  const std::map<std::string, std::string> values = {
      {"scenario", "incast"},       {"bm", "dt"},           {"json", "out.json"},
      {"trace", "trace.json"},      {"scale", "smoke"},     {"seed", "7"},
      {"duration-ms", "5"},         {"alphas", "2"},        {"shards", "1"},
      {"faults", "loss:rate=0.01"}, {"scenarios", "incast"}, {"bms", "dt"},
      {"seeds", "2"},               {"base-seed", "3"},     {"jobs", "2"},
      {"out", "out_dir"},           {"bg-loads", "0.5"},    {"query-bytes", "1000"},
      {"buffer-bytes", "1000"},     {"bg-flow-bytes", "1000"}, {"burst-bytes", "1000"},
      {"loss-rates", "0.1"},        {"name", "fig12"}};
  std::set<std::string> all;
  for (const auto& sub : subcommands) all.insert(sub.flags.begin(), sub.flags.end());
  for (const auto& sub : subcommands) {
    for (const std::string& flag : all) {
      const auto value = values.find(flag);
      const std::string arg = "--" + flag + (value == values.end() ? "" : "=" + value->second);
      const char* argv[] = {"occamy_sim", sub.name, arg.c_str()};
      Options opts;
      const auto err = Parse(3, argv, opts);
      const bool unknown = err && err->find("unknown option: --" + flag) != std::string::npos;
      EXPECT_EQ(unknown, sub.flags.count(flag) == 0)
          << sub.name << " " << arg << ": " << err.value_or("accepted");
    }
    std::set<std::string> listed;
    std::istringstream usage(Usage(sub.command));
    for (std::string line; std::getline(usage, line);) {
      EXPECT_LE(line.size(), 79u) << line;
      if (line.rfind("  --", 0) == 0) listed.insert(line.substr(4, line.find_first_of("= ", 4) - 4));
    }
    EXPECT_EQ(listed, sub.flags) << sub.name;
  }
}

TEST(CliParse, TraceFlag) {
  const char* argv[] = {"occamy_sim", "--trace=/tmp/trace.json"};
  Options opts;
  EXPECT_FALSE(Parse(2, argv, opts).has_value());
  EXPECT_EQ(opts.trace_path, "/tmp/trace.json");
  EXPECT_EQ(opts.command, Command::kRun);  // profile is the subcommand, not a flag

  // An empty path is rejected like every other empty flag value.
  const char* empty[] = {"occamy_sim", "--trace="};
  Options empty_opts;
  EXPECT_TRUE(Parse(2, empty, empty_opts).has_value());
}

TEST(CliParse, RejectsMalformedInput) {
  Options opts;
  const char* bad_flag[] = {"occamy_sim", "--frobnicate=1"};
  EXPECT_TRUE(Parse(2, bad_flag, opts).has_value());
  const char* bad_scale[] = {"occamy_sim", "--scale=medium"};
  EXPECT_TRUE(Parse(2, bad_scale, opts).has_value());
  const char* bad_duration[] = {"occamy_sim", "--duration-ms=-3"};
  EXPECT_TRUE(Parse(2, bad_duration, opts).has_value());
  const char* positional[] = {"occamy_sim", "incast"};
  EXPECT_TRUE(Parse(2, positional, opts).has_value());

  // A bare flag takes no value, in every subcommand that takes the flag.
  const std::vector<std::vector<const char*>> valued = {
      {"occamy_sim", "--list=1"},
      {"occamy_sim", "--help=x"},
      {"occamy_sim", "--degradation=1"},
      {"occamy_sim", "figure", "--list=1"},
      {"occamy_sim", "sweep", "--help=x"},
  };
  for (const auto& argv : valued) {
    const std::string arg = argv.back();
    testing::internal::CaptureStderr();
    const int code = Main(static_cast<int>(argv.size()), argv.data());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 2) << arg;
    EXPECT_NE(err.find(arg.substr(0, arg.find('=')) + " takes no value"), std::string::npos)
        << err;
  }
}

TEST(CliParse, ReportsDuplicateOptions) {
  Options opts;
  const char* argv[] = {"occamy_sim", "--seed=1", "--seed=2"};
  const auto err = Parse(3, argv, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("duplicate option --seed"), std::string::npos) << *err;
  // Repeated bare flags stay harmless.
  const char* lists[] = {"occamy_sim", "--list", "--list"};
  EXPECT_FALSE(Parse(3, lists, opts).has_value());
}

TEST(CliParse, ReportsEmptyListEntries) {
  Options opts;
  const char* doubled[] = {"occamy_sim", "--alphas=1,,2"};
  auto err = Parse(2, doubled, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("empty entry in --alphas"), std::string::npos) << *err;
  const char* trailing[] = {"occamy_sim", "--alphas=1,2,"};
  err = Parse(2, trailing, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("empty entry in --alphas"), std::string::npos) << *err;
  const char* bad_value[] = {"occamy_sim", "--alphas=1,zero"};
  err = Parse(2, bad_value, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("invalid --alphas entry: zero"), std::string::npos) << *err;
}

TEST(CliParse, RejectsNonFiniteNumbers) {
  Options opts;
  const char* nan_alpha[] = {"occamy_sim", "--alphas=nan"};
  EXPECT_TRUE(Parse(2, nan_alpha, opts).has_value());
  const char* inf_alpha[] = {"occamy_sim", "--alphas=1,inf"};
  EXPECT_TRUE(Parse(2, inf_alpha, opts).has_value());
  const char* inf_duration[] = {"occamy_sim", "--duration-ms=inf"};
  EXPECT_TRUE(Parse(2, inf_duration, opts).has_value());

  Options sweep;
  const char* inf_load[] = {"occamy_sim", "sweep", "--scenarios=incast", "--bms=dt",
                            "--bg-loads=inf"};
  EXPECT_TRUE(Parse(5, inf_load, sweep).has_value());
  Options figure;
  const char* nan_ms[] = {"occamy_sim", "figure", "--name=fig12", "--duration-ms=nan"};
  EXPECT_TRUE(Parse(4, nan_ms, figure).has_value());
}

// Inputs that overflowed simulated time or int64 state, or never finished,
// are usage errors that name the flag, from every subcommand.
TEST(CliParse, InputsAboveTheirCapsExit2) {
  struct Row {
    std::vector<const char*> args;
    const char* error;
  };
  const Row rows[] = {
      // A duration past the int64 picosecond range ran with a negative horizon.
      {{"run", "--scenario=burst", "--duration-ms=1e300"}, "--duration-ms out of range"},
      {{"sweep", "--scenarios=burst", "--bms=dt", "--duration-ms=1e300"},
       "--duration-ms out of range"},
      {{"figure", "--name=fig12", "--duration-ms=1e300"}, "--duration-ms out of range"},
      // Sizes that aborted in Simulator::At or died in std::bad_alloc.
      {{"sweep", "--scenarios=incast", "--bms=dt", "--query-bytes=1000000000000000"},
       "--query-bytes entry out of range"},
      {{"sweep", "--scenarios=alltoall", "--bms=dt", "--bg-flow-bytes=999999999999999999"},
       "--bg-flow-bytes entry out of range"},
      {{"sweep", "--scenarios=incast", "--bms=dt", "--buffer-bytes=999999999999999999"},
       "--buffer-bytes entry out of range"},
      {{"sweep", "--scenarios=burst", "--bms=dt", "--burst-bytes=999999999999999999"},
       "--burst-bytes entry out of range"},
      // An alpha whose DT threshold is no int64 (undefined behaviour).
      {{"run", "--scenario=incast", "--alphas=1e300"}, "--alphas entry out of range"},
      {{"profile", "--scenario=incast", "--alphas=1,1e300"}, "--alphas entry out of range"},
      // A load whose pregenerated arrival stream never ends.
      {{"sweep", "--scenarios=websearch", "--bms=dt", "--bg-loads=1e9", "--duration-ms=1"},
       "--bg-loads entry out of range"},
  };
  for (const Row& row : rows) {
    std::vector<const char*> argv = {"occamy_sim"};
    argv.insert(argv.end(), row.args.begin(), row.args.end());
    testing::internal::CaptureStderr();
    const int code = Main(static_cast<int>(argv.size()), argv.data());
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 2) << row.error;
    EXPECT_NE(err.find(row.error), std::string::npos) << err;
  }
}

// Each cap admits every value in use, including the benchmark's shortest
// and longest durations; one step above a cap is rejected.
TEST(CliParse, CapsAdmitValuesInUse) {
  for (const char* duration : {"--duration-ms=0.001", "--duration-ms=1000"}) {
    const char* argv[] = {"occamy_sim", "--scenario=choking", duration};
    Options opts;
    EXPECT_FALSE(Parse(3, argv, opts).has_value()) << duration;
  }
  exp::PointSpec at_cap;
  at_cap.duration_ms = exp::kMaxDurationMs;
  at_cap.alphas = {exp::kMaxAlpha};
  at_cap.bg_load = exp::kMaxBgLoad;
  at_cap.query_bytes = at_cap.buffer_bytes = at_cap.bg_flow_bytes = at_cap.burst_bytes =
      exp::kMaxKnobBytes;
  EXPECT_EQ(exp::InputRangeError(at_cap), "");
  exp::PointSpec above = at_cap;
  above.burst_bytes = exp::kMaxKnobBytes + 1;
  EXPECT_NE(exp::InputRangeError(above).find("--burst-bytes"), std::string::npos);
  above = at_cap;
  above.duration_ms = std::nextafter(exp::kMaxDurationMs, 2 * exp::kMaxDurationMs);
  EXPECT_NE(exp::InputRangeError(above).find("--duration-ms"), std::string::npos);
}

TEST(SweepParse, FullCommandLine) {
  const char* argv[] = {"occamy_sim",
                        "sweep",
                        "--scenarios=incast,websearch",
                        "--bms=dt,occamy,pushout",
                        "--seeds=2",
                        "--jobs=4",
                        "--scale=smoke",
                        "--duration-ms=5",
                        "--out=/tmp/sweep",
                        "--bg-loads=0.5,0.9"};
  Options opts;
  const auto err = Parse(10, argv, opts);
  ASSERT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(opts.command, Command::kSweep);
  EXPECT_EQ(opts.sweep.scenarios, (std::vector<std::string>{"incast", "websearch"}));
  EXPECT_EQ(opts.sweep.bms, (std::vector<std::string>{"dt", "occamy", "pushout"}));
  EXPECT_EQ(opts.sweep.seeds, 2);
  EXPECT_EQ(opts.jobs, 4);
  EXPECT_EQ(opts.out_dir, "/tmp/sweep");
  EXPECT_EQ(opts.sweep.bg_loads, (std::vector<double>{0.5, 0.9}));
  ASSERT_TRUE(opts.sweep.scale.has_value());
}

TEST(SweepParse, RejectsMissingRequiredDuplicatesAndEmptyEntries) {
  Options opts;
  const char* missing[] = {"occamy_sim", "sweep", "--bms=dt"};
  auto err = Parse(3, missing, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("--scenarios"), std::string::npos) << *err;

  Options opts2;
  const char* dup[] = {"occamy_sim", "sweep",    "--scenarios=incast",
                       "--bms=dt",   "--jobs=2", "--jobs=3"};
  err = Parse(6, dup, opts2);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("duplicate option --jobs"), std::string::npos) << *err;

  Options opts3;
  const char* empty_entry[] = {"occamy_sim", "sweep", "--scenarios=incast,,websearch",
                               "--bms=dt"};
  err = Parse(4, empty_entry, opts3);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("empty entry in --scenarios"), std::string::npos) << *err;
}

TEST(FigureParse, NameRequiredAndValidated) {
  Options opts;
  const char* bare[] = {"occamy_sim", "figure"};
  auto err = Parse(2, bare, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("--name"), std::string::npos) << *err;

  Options opts2;
  const char* good[] = {"occamy_sim", "figure", "--name=fig12", "--jobs=2", "--seeds=3"};
  err = Parse(5, good, opts2);
  ASSERT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(opts2.figure, "fig12");
  EXPECT_EQ(opts2.jobs, 2);
  EXPECT_EQ(opts2.sweep.seeds, 3);
}

TEST(CliRun, RejectsUnknownNames) {
  Options opts;
  opts.point.bm = "no_such_scheme";
  EXPECT_FALSE(RunScenario(opts).ok);
  opts.point.bm = "occamy";
  opts.point.scenario = "no_such_scenario";
  EXPECT_FALSE(RunScenario(opts).ok);
}

TEST(CliRun, IncastUnderEveryScheme) {
  for (const std::string& scheme : exp::SchemeNames()) {
    Options opts;
    opts.point.scenario = "incast";
    opts.point.bm = scheme;
    opts.point.scale = exp::BenchScale::kSmoke;
    opts.point.duration_ms = 20;
    const exp::PointResult result = RunScenario(opts);
    ASSERT_TRUE(result.ok) << scheme << ": " << result.error;
    const std::string json = result.metrics.ToJson();
    ASSERT_FALSE(json.empty()) << scheme;
    EXPECT_EQ(json.front(), '{') << scheme;
    EXPECT_EQ(json.back(), '}') << scheme;
    EXPECT_TRUE(JsonHasString(json, "scenario", "incast")) << json;
    EXPECT_TRUE(JsonHasString(json, "bm", scheme)) << json;
    EXPECT_GT(JsonNumber(json, "delivered_bytes"), 0) << scheme;
    EXPECT_GT(JsonNumber(json, "queries_completed"), 0) << scheme;
    EXPECT_GT(JsonNumber(json, "peak_occupancy_bytes"), 0) << scheme;
    EXPECT_GT(JsonNumber(json, "qct_p99_ms"), 0) << scheme;
  }
}

TEST(CliRun, FabricScenarioProducesJson) {
  Options opts;
  opts.point.scenario = "websearch";
  opts.point.bm = "occamy";
  opts.point.scale = exp::BenchScale::kSmoke;
  opts.point.duration_ms = 5;
  const exp::PointResult result = RunScenario(opts);
  ASSERT_TRUE(result.ok) << result.error;
  const std::string json = result.metrics.ToJson();
  EXPECT_TRUE(JsonHasString(json, "platform", "fabric")) << json;
  EXPECT_GT(JsonNumber(json, "delivered_bytes"), 0) << json;
}

TEST(CliRun, ShardedFabricRunMatchesSingleShard) {
  Options opts;
  opts.point.scenario = "websearch";
  opts.point.bm = "occamy";
  opts.point.scale = exp::BenchScale::kSmoke;
  opts.point.duration_ms = 2;
  opts.point.shards = 1;
  const exp::PointResult one = RunScenario(opts);
  ASSERT_TRUE(one.ok) << one.error;
  opts.point.shards = 4;
  const exp::PointResult four = RunScenario(opts);
  ASSERT_TRUE(four.ok) << four.error;
  for (const char* key :
       {"delivered_bytes", "qct_p99_ms", "fct_p99_slowdown", "sim_events", "drops"}) {
    EXPECT_EQ(JsonNumber(one.metrics.ToJson(), key), JsonNumber(four.metrics.ToJson(), key)) << key;
  }
  EXPECT_EQ(JsonNumber(one.metrics.ToJson(), "shards"), 1);
  EXPECT_EQ(JsonNumber(four.metrics.ToJson(), "shards"), 4);
}

// The run reports the window planner's telemetry, and adaptive batching
// finishes this workload in strictly fewer barrier rounds than the windows
// it executes.
TEST(CliRun, WindowBatchRunsMatchAndReduceBarrierRounds) {
  Options opts;
  opts.point.scenario = "burst_absorption";
  opts.point.bm = "occamy";
  opts.point.scale = exp::BenchScale::kSmoke;
  opts.point.duration_ms = 2;
  const exp::PointResult result = RunScenario(opts);
  ASSERT_TRUE(result.ok) << result.error;
  const std::string json = result.metrics.ToJson();
  EXPECT_LT(JsonNumber(json, "windows_run"),
            JsonNumber(json, "windows_executed"));
  EXPECT_GT(JsonNumber(json, "max_window_batch"), 1);
}

// An OCCAMY_TRACE=OFF build carries no recorder, so asking it for a trace
// is a usage error that writes nothing; a tracing build writes the file.
TEST(CliRun, TraceNeedsTheRecorderCompiledIn) {
  const std::string path = ::testing::TempDir() + "cli_test_trace.json";
  std::remove(path.c_str());
  const std::string flag = "--trace=" + path;
  const char* argv[] = {"occamy_sim",      "run",           "--scenario=incast",
                        "--scale=smoke",   "--duration-ms=1", flag.c_str()};
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  const int code = Main(6, argv);
  testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  const bool written = std::remove(path.c_str()) == 0;
  if (obs::kTraceCompiled) {
    EXPECT_EQ(code, 0) << err;
    EXPECT_TRUE(written);
  } else {
    EXPECT_EQ(code, 2) << err;
    EXPECT_NE(err.find("compiled out"), std::string::npos) << err;
    EXPECT_FALSE(written) << "wrote " << path;
  }
}

// benchmark/run.py traces star_choking_occamy for 15 ms at default scale
// and fails a run whose per-shard trace ring fills. The default one-shard
// engine must leave room: it adds four spans per planned batch of windows,
// not per window, so no event is dropped and every shard stays under 60%
// of the ring.
TEST(CliRun, TracedChokingRunStaysInsideTheBenchmarkRing) {
  if (!obs::kTraceCompiled) GTEST_SKIP() << "OCCAMY_TRACE=OFF build";
  Options opts;
  opts.point.scenario = "choking";
  opts.point.bm = "occamy";
  opts.point.scale = exp::BenchScale::kDefault;
  opts.point.duration_ms = 15;
  opts.point.seed = 1001;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  recorder.Start(opts.point.shards);
  const exp::PointResult result = RunScenario(opts);
  recorder.Stop();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(recorder.dropped(), 0u);
  std::vector<size_t> per_shard(static_cast<size_t>(recorder.shards()), 0);
  for (const obs::TraceEvent& ev : recorder.SortedEvents()) {
    ++per_shard[static_cast<size_t>(ev.shard)];
  }
  for (size_t shard = 0; shard < per_shard.size(); ++shard) {
    EXPECT_LT(per_shard[shard], obs::TraceRecorder::kDefaultCapacity * 6 / 10)
        << "shard " << shard;
  }
  recorder.Clear();
}

// --degradation appends the healthy twin's values and the faulted-minus-
// healthy deltas.
void ExpectDegradationFields(const std::string& json) {
  for (const char* key :
       {"healthy_goodput_gbps", "delta_goodput_gbps", "healthy_drops", "delta_drops"}) {
    JsonNumber(json, key);
  }
}

// A rerouted fabric link_down heals: the delivered rate returns to 90% of
// the healthy twin's (src/fault/recovery.h), and rerouting beats the
// outage. The pair is slow under TSan, so every check on it lives here.
TEST(CliRun, DegradationReportShowsRerouteHealing) {
  Options opts;
  opts.point.scenario = "websearch";
  opts.point.scale = exp::BenchScale::kSmoke;
  opts.point.duration_ms = 8;
  opts.point.shards = 2;
  opts.point.faults = "link_down:t=2ms,dur=3ms,node=sw0,port=4,reroute=1";
  opts.degradation = true;
  const exp::PointResult result = RunScenario(opts);
  ASSERT_TRUE(result.ok) << result.error;
  const std::string json = result.metrics.ToJson();
  ExpectDegradationFields(json);
  EXPECT_EQ(JsonNumber(json, "fault_onset_ms"), 2) << json;
  EXPECT_GE(JsonNumber(json, "first_delivery_after_fault_ms"), 2) << json;
  EXPECT_EQ(JsonNumber(json, "recovered"), 1)
      << "delivered rate never returned to 90% of the healthy twin: " << json;
  EXPECT_GE(JsonNumber(json, "recovery_time_ms"), 0) << json;
  // Recovery well before the 3 ms link restore would have healed it.
  EXPECT_LT(JsonNumber(json, "recovery_time_ms"), 3) << json;
  EXPECT_GT(JsonNumber(json, "reroutes"), 0) << "route epochs must publish";
  EXPECT_GT(JsonNumber(json, "link_down_drops"), 0) << json;
}

TEST(CliRun, DegradationReportOnStarFreeze) {
  Options opts;
  opts.point.scenario = "incast";
  opts.point.scale = exp::BenchScale::kSmoke;
  opts.point.duration_ms = 8;
  opts.point.faults = "freeze:t=5ms,dur=2ms,node=sw0";
  opts.degradation = true;
  const exp::PointResult result = RunScenario(opts);
  ASSERT_TRUE(result.ok) << result.error;
  const std::string json = result.metrics.ToJson();
  ExpectDegradationFields(json);
  EXPECT_GT(JsonNumber(json, "faults_injected"), 0) << json;
}

// Library callers that bypass the parsers get the same check as a
// PointResult error instead of an overflowing run.
TEST(CliRun, RunPointRejectsInputsAboveCaps) {
  exp::PointSpec spec;
  spec.scenario = "incast";
  spec.alphas = {1e300};
  exp::PointResult r = exp::RunPoint(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--alphas entry out of range"), std::string::npos) << r.error;
  spec.alphas.clear();
  spec.duration_ms = std::nan("");
  r = exp::RunPoint(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--duration-ms out of range"), std::string::npos) << r.error;
}

TEST(CliRun, ListsAreNonEmpty) {
  EXPECT_GE(exp::ScenarioNames().size(), 5u);
  EXPECT_GE(exp::SchemeNames().size(), 5u);
  EXPECT_FALSE(Usage(Command::kRun).empty());

  // --list prints every list; figure --list prints the figures only.
  const char* run[] = {"occamy_sim", "--list"};
  testing::internal::CaptureStdout();
  EXPECT_EQ(Main(2, run), 0);
  const std::string all = testing::internal::GetCapturedStdout();
  const char* figure[] = {"occamy_sim", "figure", "--list"};
  testing::internal::CaptureStdout();
  EXPECT_EQ(Main(3, figure), 0);
  const std::string figures = testing::internal::GetCapturedStdout();
  for (const char* list : {"Scenarios:", "BM schemes:", "Figures:"}) {
    EXPECT_NE(all.find(list), std::string::npos) << all;
    EXPECT_EQ(figures.find(list) == std::string::npos, std::string(list) != "Figures:")
        << figures;
  }
}

}  // namespace
}  // namespace occamy::cli
