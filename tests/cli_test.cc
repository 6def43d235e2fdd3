// Smoke tests for the occamy_sim scenario-runner CLI (tools/sim_cli.h):
// argument parsing, error paths, the --trace and --degradation reports, and
// a tiny run of the incast scenario under every registered BM scheme
// asserting valid JSON with nonzero delivered bytes. Checks that need the
// real binary's files or stdout are in tests/cli_smoke.py.
#include "tools/sim_cli.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "tools/sweep_cli.h"

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
  SimOptions opts;
  EXPECT_FALSE(ParseArgs(1, argv, opts).has_value());
  EXPECT_EQ(opts.scenario, "incast");
  EXPECT_EQ(opts.bm, "occamy");
  EXPECT_TRUE(opts.json_path.empty());
}

TEST(CliParse, AllOptions) {
  const char* argv[] = {"occamy_sim",          "--scenario=choking", "--bm=dt",
                        "--json=/tmp/out.json", "--scale=smoke",      "--seed=7",
                        "--duration-ms=12.5",   "--alphas=8,1,1,1,1,1,1,1"};
  SimOptions opts;
  EXPECT_FALSE(ParseArgs(8, argv, opts).has_value());
  EXPECT_EQ(opts.scenario, "choking");
  EXPECT_EQ(opts.bm, "dt");
  EXPECT_EQ(opts.json_path, "/tmp/out.json");
  EXPECT_EQ(opts.scale, "smoke");
  EXPECT_EQ(opts.seed, 7u);
  EXPECT_DOUBLE_EQ(opts.duration_ms, 12.5);
  EXPECT_EQ(opts.alphas, (std::vector<double>{8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0}));
}

TEST(CliParse, ShardsFlag) {
  const char* argv[] = {"occamy_sim", "--scenario=websearch", "--shards=64"};
  SimOptions opts;
  EXPECT_FALSE(ParseArgs(3, argv, opts).has_value());
  EXPECT_EQ(opts.shards, 64);

  for (const char* bad : {"--shards=0", "--shards=65", "--shards=abc", "--shards=-1"}) {
    const char* bad_argv[] = {"occamy_sim", "--scenario=websearch", bad};
    SimOptions bad_opts;
    EXPECT_TRUE(ParseArgs(3, bad_argv, bad_opts).has_value()) << bad;
  }
}

// Star and P4 scenarios model one shared-memory switch: one shard runs
// them, more is a usage error (exit 2) from run, profile and sweep that
// names the scenario.
TEST(CliParse, StarAndP4RejectShardsAboveOne) {
  for (const std::string scenario : {"burst_absorption", "burst"}) {
    const std::string flag = "--scenario=" + scenario;
    const char* one[] = {"occamy_sim", flag.c_str(), "--shards=1"};
    SimOptions one_opts;
    EXPECT_FALSE(ParseArgs(3, one, one_opts).has_value()) << scenario;
    const char* two[] = {"occamy_sim", "--shards=2", flag.c_str()};
    SimOptions two_opts;
    const auto err = ParseArgs(3, two, two_opts);
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
    SimOptions opts;
    EXPECT_FALSE(ParseArgs(3, argv, opts).has_value()) << ok;
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

TEST(CliParse, WindowBatchFlag) {
  const char* numeric[] = {"occamy_sim", "--window-batch=4"};
  SimOptions opts;
  EXPECT_FALSE(ParseArgs(2, numeric, opts).has_value());
  EXPECT_EQ(opts.window_batch, 4);

  const char* autov[] = {"occamy_sim", "--window-batch=auto"};
  SimOptions auto_opts;
  auto_opts.window_batch = 7;  // prove "auto" actively resets to 0
  EXPECT_FALSE(ParseArgs(2, autov, auto_opts).has_value());
  EXPECT_EQ(auto_opts.window_batch, 0);

  for (const char* bad :
       {"--window-batch=0", "--window-batch=17", "--window-batch=abc",
        "--window-batch=-2", "--window-batch=4x", "--window-batch=1.5"}) {
    const char* bad_argv[] = {"occamy_sim", bad};
    SimOptions bad_opts;
    const auto err = ParseArgs(2, bad_argv, bad_opts);
    ASSERT_TRUE(err.has_value()) << bad;
    EXPECT_NE(err->find("auto|1..16"), std::string::npos) << *err;
  }
}

TEST(SweepParse, WindowBatchFlag) {
  SweepOptions sweep;
  const char* argv[] = {"sweep", "--scenarios=incast", "--bms=dt",
                        "--window-batch=8"};
  EXPECT_FALSE(ParseSweepArgs(4, argv, sweep).has_value());
  EXPECT_EQ(sweep.spec.window_batch, 8);

  SweepOptions bad;
  const char* bad_argv[] = {"sweep", "--scenarios=incast", "--bms=dt",
                            "--window-batch=nope"};
  EXPECT_TRUE(ParseSweepArgs(4, bad_argv, bad).has_value());
}

TEST(CliParse, TraceFlag) {
  const char* argv[] = {"occamy_sim", "--trace=/tmp/trace.json"};
  SimOptions opts;
  EXPECT_FALSE(ParseArgs(2, argv, opts).has_value());
  EXPECT_EQ(opts.trace_path, "/tmp/trace.json");
  EXPECT_FALSE(opts.profile);  // profile is the subcommand, not a flag

  // An empty path is rejected like every other empty flag value.
  const char* empty[] = {"occamy_sim", "--trace="};
  SimOptions empty_opts;
  EXPECT_TRUE(ParseArgs(2, empty, empty_opts).has_value());
}

TEST(CliParse, RejectsMalformedInput) {
  SimOptions opts;
  const char* bad_flag[] = {"occamy_sim", "--frobnicate=1"};
  EXPECT_TRUE(ParseArgs(2, bad_flag, opts).has_value());
  const char* bad_scale[] = {"occamy_sim", "--scale=medium"};
  EXPECT_TRUE(ParseArgs(2, bad_scale, opts).has_value());
  const char* bad_duration[] = {"occamy_sim", "--duration-ms=-3"};
  EXPECT_TRUE(ParseArgs(2, bad_duration, opts).has_value());
  const char* positional[] = {"occamy_sim", "incast"};
  EXPECT_TRUE(ParseArgs(2, positional, opts).has_value());
}

TEST(CliParse, ReportsDuplicateOptions) {
  SimOptions opts;
  const char* argv[] = {"occamy_sim", "--seed=1", "--seed=2"};
  const auto err = ParseArgs(3, argv, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("duplicate option --seed"), std::string::npos) << *err;
  // Repeated bare flags stay harmless.
  const char* lists[] = {"occamy_sim", "--list", "--list"};
  EXPECT_FALSE(ParseArgs(3, lists, opts).has_value());
}

TEST(CliParse, ReportsEmptyListEntries) {
  SimOptions opts;
  const char* doubled[] = {"occamy_sim", "--alphas=1,,2"};
  auto err = ParseArgs(2, doubled, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("empty entry in --alphas"), std::string::npos) << *err;
  const char* trailing[] = {"occamy_sim", "--alphas=1,2,"};
  err = ParseArgs(2, trailing, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("empty entry in --alphas"), std::string::npos) << *err;
  const char* bad_value[] = {"occamy_sim", "--alphas=1,zero"};
  err = ParseArgs(2, bad_value, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("invalid --alphas entry: zero"), std::string::npos) << *err;
}

TEST(CliParse, RejectsNonFiniteNumbers) {
  SimOptions opts;
  const char* nan_alpha[] = {"occamy_sim", "--alphas=nan"};
  EXPECT_TRUE(ParseArgs(2, nan_alpha, opts).has_value());
  const char* inf_alpha[] = {"occamy_sim", "--alphas=1,inf"};
  EXPECT_TRUE(ParseArgs(2, inf_alpha, opts).has_value());
  const char* inf_duration[] = {"occamy_sim", "--duration-ms=inf"};
  EXPECT_TRUE(ParseArgs(2, inf_duration, opts).has_value());

  SweepOptions sweep;
  const char* inf_load[] = {"sweep", "--scenarios=incast", "--bms=dt", "--bg-loads=inf"};
  EXPECT_TRUE(ParseSweepArgs(4, inf_load, sweep).has_value());
  FigureOptions figure;
  const char* nan_ms[] = {"figure", "--name=fig12", "--duration-ms=nan"};
  EXPECT_TRUE(ParseFigureArgs(3, nan_ms, figure).has_value());
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
    SimOptions opts;
    EXPECT_FALSE(ParseArgs(3, argv, opts).has_value()) << duration;
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
  const char* argv[] = {"sweep",
                        "--scenarios=incast,websearch",
                        "--bms=dt,occamy,pushout",
                        "--seeds=2",
                        "--jobs=4",
                        "--scale=smoke",
                        "--duration-ms=5",
                        "--out=/tmp/sweep",
                        "--bg-loads=0.5,0.9"};
  SweepOptions opts;
  const auto err = ParseSweepArgs(9, argv, opts);
  ASSERT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(opts.spec.scenarios, (std::vector<std::string>{"incast", "websearch"}));
  EXPECT_EQ(opts.spec.bms, (std::vector<std::string>{"dt", "occamy", "pushout"}));
  EXPECT_EQ(opts.spec.seeds, 2);
  EXPECT_EQ(opts.jobs, 4);
  EXPECT_EQ(opts.out_dir, "/tmp/sweep");
  EXPECT_EQ(opts.spec.bg_loads, (std::vector<double>{0.5, 0.9}));
  ASSERT_TRUE(opts.spec.scale.has_value());
}

TEST(SweepParse, RejectsMissingRequiredDuplicatesAndEmptyEntries) {
  SweepOptions opts;
  const char* missing[] = {"sweep", "--bms=dt"};
  auto err = ParseSweepArgs(2, missing, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("--scenarios"), std::string::npos) << *err;

  SweepOptions opts2;
  const char* dup[] = {"sweep", "--scenarios=incast", "--bms=dt", "--jobs=2", "--jobs=3"};
  err = ParseSweepArgs(5, dup, opts2);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("duplicate option --jobs"), std::string::npos) << *err;

  SweepOptions opts3;
  const char* empty_entry[] = {"sweep", "--scenarios=incast,,websearch", "--bms=dt"};
  err = ParseSweepArgs(3, empty_entry, opts3);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("empty entry in --scenarios"), std::string::npos) << *err;
}

TEST(FigureParse, NameRequiredAndValidated) {
  FigureOptions opts;
  const char* bare[] = {"figure"};
  auto err = ParseFigureArgs(1, bare, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("--name"), std::string::npos) << *err;

  FigureOptions opts2;
  const char* good[] = {"figure", "--name=fig12", "--jobs=2", "--seeds=3"};
  err = ParseFigureArgs(4, good, opts2);
  ASSERT_FALSE(err.has_value()) << *err;
  EXPECT_EQ(opts2.name, "fig12");
  EXPECT_EQ(opts2.jobs, 2);
  EXPECT_EQ(opts2.seeds, 3);
}

TEST(CliRun, RejectsUnknownNames) {
  SimOptions opts;
  opts.bm = "no_such_scheme";
  EXPECT_FALSE(RunScenario(opts).ok);
  opts.bm = "occamy";
  opts.scenario = "no_such_scenario";
  EXPECT_FALSE(RunScenario(opts).ok);
}

TEST(CliRun, IncastUnderEveryScheme) {
  for (const std::string& scheme : SchemeNames()) {
    SimOptions opts;
    opts.scenario = "incast";
    opts.bm = scheme;
    opts.scale = "smoke";
    opts.duration_ms = 20;
    const SimResult result = RunScenario(opts);
    ASSERT_TRUE(result.ok) << scheme << ": " << result.error;
    ASSERT_FALSE(result.json.empty()) << scheme;
    EXPECT_EQ(result.json.front(), '{') << scheme;
    EXPECT_EQ(result.json.back(), '}') << scheme;
    EXPECT_TRUE(JsonHasString(result.json, "scenario", "incast")) << result.json;
    EXPECT_TRUE(JsonHasString(result.json, "bm", scheme)) << result.json;
    EXPECT_GT(JsonNumber(result.json, "delivered_bytes"), 0) << scheme;
    EXPECT_GT(JsonNumber(result.json, "queries_completed"), 0) << scheme;
    EXPECT_GT(JsonNumber(result.json, "peak_occupancy_bytes"), 0) << scheme;
    EXPECT_GT(JsonNumber(result.json, "qct_p99_ms"), 0) << scheme;
  }
}

TEST(CliRun, FabricScenarioProducesJson) {
  SimOptions opts;
  opts.scenario = "websearch";
  opts.bm = "occamy";
  opts.scale = "smoke";
  opts.duration_ms = 5;
  const SimResult result = RunScenario(opts);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(JsonHasString(result.json, "platform", "fabric")) << result.json;
  EXPECT_GT(JsonNumber(result.json, "delivered_bytes"), 0) << result.json;
}

TEST(CliRun, ShardedFabricRunMatchesSingleShard) {
  SimOptions opts;
  opts.scenario = "websearch";
  opts.bm = "occamy";
  opts.scale = "smoke";
  opts.duration_ms = 2;
  opts.shards = 1;
  const SimResult one = RunScenario(opts);
  ASSERT_TRUE(one.ok) << one.error;
  opts.shards = 4;
  const SimResult four = RunScenario(opts);
  ASSERT_TRUE(four.ok) << four.error;
  for (const char* key :
       {"delivered_bytes", "qct_p99_ms", "fct_p99_slowdown", "sim_events", "drops"}) {
    EXPECT_EQ(JsonNumber(one.json, key), JsonNumber(four.json, key)) << key;
  }
  EXPECT_EQ(JsonNumber(one.json, "shards"), 1);
  EXPECT_EQ(JsonNumber(four.json, "shards"), 4);
}

// --window-batch reaches the engine: metrics are byte-identical across
// settings, the telemetry fields are emitted, and the adaptive schedule
// finishes in strictly fewer barrier rounds than batch=1 on this workload.
TEST(CliRun, WindowBatchRunsMatchAndReduceBarrierRounds) {
  SimOptions opts;
  opts.scenario = "burst_absorption";
  opts.bm = "occamy";
  opts.scale = "smoke";
  opts.duration_ms = 2;
  opts.shards = 1;
  opts.window_batch = 1;
  const SimResult legacy = RunScenario(opts);
  ASSERT_TRUE(legacy.ok) << legacy.error;
  opts.window_batch = 0;  // auto
  const SimResult adaptive = RunScenario(opts);
  ASSERT_TRUE(adaptive.ok) << adaptive.error;
  for (const char* key :
       {"delivered_bytes", "qct_p99_ms", "fct_avg_ms", "sim_events", "drops"}) {
    EXPECT_EQ(JsonNumber(legacy.json, key), JsonNumber(adaptive.json, key)) << key;
  }
  EXPECT_EQ(JsonNumber(legacy.json, "window_batch"), 1);
  EXPECT_EQ(JsonNumber(adaptive.json, "window_batch"), 0);
  EXPECT_EQ(JsonNumber(legacy.json, "max_window_batch"), 1);
  EXPECT_GT(JsonNumber(adaptive.json, "max_window_batch"), 1);
  EXPECT_LT(JsonNumber(adaptive.json, "windows_run"),
            JsonNumber(legacy.json, "windows_run"));
  // Batching rearranges barriers, never the windows that actually execute.
  EXPECT_EQ(JsonNumber(adaptive.json, "windows_executed"),
            JsonNumber(legacy.json, "windows_executed"));
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
  SimOptions opts;
  opts.scenario = "websearch";
  opts.scale = "smoke";
  opts.duration_ms = 8;
  opts.shards = 2;
  opts.faults = "link_down:t=2ms,dur=3ms,node=sw0,port=4,reroute=1";
  opts.degradation = true;
  const SimResult result = RunScenario(opts);
  ASSERT_TRUE(result.ok) << result.error;
  ExpectDegradationFields(result.json);
  EXPECT_EQ(JsonNumber(result.json, "fault_onset_ms"), 2) << result.json;
  EXPECT_GE(JsonNumber(result.json, "first_delivery_after_fault_ms"), 2) << result.json;
  EXPECT_EQ(JsonNumber(result.json, "recovered"), 1)
      << "delivered rate never returned to 90% of the healthy twin: " << result.json;
  EXPECT_GE(JsonNumber(result.json, "recovery_time_ms"), 0) << result.json;
  // Recovery well before the 3 ms link restore would have healed it.
  EXPECT_LT(JsonNumber(result.json, "recovery_time_ms"), 3) << result.json;
  EXPECT_GT(JsonNumber(result.json, "reroutes"), 0) << "route epochs must publish";
  EXPECT_GT(JsonNumber(result.json, "link_down_drops"), 0) << result.json;
}

TEST(CliRun, DegradationReportOnStarFreeze) {
  SimOptions opts;
  opts.scenario = "incast";
  opts.scale = "smoke";
  opts.duration_ms = 8;
  opts.faults = "freeze:t=5ms,dur=2ms,node=sw0";
  opts.degradation = true;
  const SimResult result = RunScenario(opts);
  ASSERT_TRUE(result.ok) << result.error;
  ExpectDegradationFields(result.json);
  EXPECT_GT(JsonNumber(result.json, "faults_injected"), 0) << result.json;
}

// Out-of-range window_batch is a runner error, not a crash.
TEST(CliRun, RejectsWindowBatchOutOfRange) {
  SimOptions opts;
  opts.scenario = "burst";
  opts.bm = "occamy";
  opts.scale = "smoke";
  opts.duration_ms = 1;
  opts.shards = 1;
  opts.window_batch = 99;  // bypasses ParseArgs, lands in RunPoint validation
  const SimResult result = RunScenario(opts);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("window_batch"), std::string::npos) << result.error;
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
  EXPECT_GE(ScenarioNames().size(), 5u);
  EXPECT_GE(SchemeNames().size(), 5u);
  EXPECT_FALSE(UsageString().empty());
}

}  // namespace
}  // namespace occamy::cli
