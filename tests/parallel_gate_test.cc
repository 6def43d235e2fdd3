// Flag parsing for the parallel-engine gate bench
// (bench/common/parallel_gate.h). The gate flags decide whether a perf
// regression fails CI, so a typo'd value must be a hard usage error — in
// particular --min-speedup, where the old atof path would have silently
// parsed garbage as 0 and turned the gate into "report only"
// (cert-err34-c).
#include "bench/common/parallel_gate.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace occamy::bench {
namespace {

TEST(ParseGateDouble, AcceptsFiniteNonNegativeNumbers) {
  double out = -1;
  EXPECT_TRUE(ParseGateDouble("0", out));
  EXPECT_EQ(out, 0.0);
  EXPECT_TRUE(ParseGateDouble("1.5", out));
  EXPECT_EQ(out, 1.5);
  EXPECT_TRUE(ParseGateDouble("2e-1", out));
  EXPECT_EQ(out, 0.2);
}

TEST(ParseGateDouble, RejectsGarbageWithoutClobberingOutput) {
  double out = 42.0;
  for (const char* bad :
       {"", "abc", "1.5x", "x1.5", "-1", "-0.25", "nan", "inf", "1.5 "}) {
    EXPECT_FALSE(ParseGateDouble(bad, out)) << "input: '" << bad << "'";
    EXPECT_EQ(out, 42.0) << "input: '" << bad << "'";
  }
}

// Runs ParseParallelGateArgs over a flag list. gtest owns argv[0].
bool Parse(std::vector<std::string> args, ParallelGateOptions& opts) {
  args.insert(args.begin(), "gate_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return ParseParallelGateArgs(static_cast<int>(argv.size()), argv.data(), opts);
}

TEST(ParseParallelGateArgs, ParsesEveryFlag) {
  ParallelGateOptions opts;
  ASSERT_TRUE(Parse({"--json=/tmp/out.json", "--scale=smoke", "--shards=8",
                     "--window-batch=4", "--min-speedup=1.25",
                     "--min-speedup-per-core=0.5", "--quick"},
                    opts));
  EXPECT_EQ(opts.json_path, "/tmp/out.json");
  EXPECT_EQ(opts.scale, exp::BenchScale::kSmoke);
  EXPECT_EQ(opts.shards, 8);
  EXPECT_EQ(opts.window_batch, 4);
  EXPECT_EQ(opts.min_speedup, 1.25);
  EXPECT_EQ(opts.min_speedup_per_core, 0.5);
  EXPECT_TRUE(opts.quick);
}

TEST(ParseParallelGateArgs, WindowBatchAutoResetsAFixedSetting) {
  ParallelGateOptions opts;
  opts.window_batch = 7;
  ASSERT_TRUE(Parse({"--window-batch=auto"}, opts));
  EXPECT_EQ(opts.window_batch, 0);
}

TEST(ParseParallelGateArgs, RejectsBadValues) {
  for (const char* bad :
       {"--shards=1", "--shards=65", "--shards=abc", "--shards=4x", "--shards=+4",
        "--window-batch=0", "--window-batch=17", "--window-batch=4x", "--window-batch=",
        "--min-speedup=fast", "--min-speedup=-1", "--min-speedup=nan",
        "--min-speedup-per-core=inf", "--min-speedup-per-core=0.5x",
        "--scale=bogus", "--scale=", "--not-a-flag"}) {
    ParallelGateOptions opts;
    EXPECT_FALSE(Parse({bad}, opts)) << "flag: " << bad;
  }
}

// The strict parse must not leave a half-applied gate behind: a rejected
// --min-speedup keeps the previous (default, report-only) value.
TEST(ParseParallelGateArgs, RejectedGateFlagLeavesOptionsUntouched) {
  ParallelGateOptions opts;
  EXPECT_FALSE(Parse({"--min-speedup=1.5oops"}, opts));
  EXPECT_EQ(opts.min_speedup, 0.0);
  EXPECT_EQ(opts.min_speedup_per_core, 0.0);
}

}  // namespace
}  // namespace occamy::bench
