// Determinism contract of the partition-parallel fabric engine: for any
// shard count >= 1 (and with worker threads on or off) a fabric run must
// produce bit-identical metrics. Exact double equality is intentional —
// "close" would mean the conservative synchronization leaked.
//
// The shard-count invariance itself goes through the shared differential-
// oracle harness (tests/differential.h), which compares the full JSON
// metric fingerprint; the runner-level tests below cover what the harness
// cannot express (thread on/off knob, engine-id fields).
#include <gtest/gtest.h>

#include "src/exp/fabric_run.h"
#include "tests/differential.h"

namespace occamy::exp {
namespace {

exp::PointSpec FabricPoint(const std::string& scenario, uint64_t seed = 1) {
  exp::PointSpec spec;
  spec.scenario = scenario;
  spec.bm = "occamy";
  spec.scale = BenchScale::kSmoke;
  spec.duration_ms = 2;
  spec.seed = occamy::testing::ShiftedSeed(seed);
  return spec;
}

TEST(FabricParallelTest, WebSearchShardCountInvariant) {
  occamy::testing::ExpectShardCountInvariant(FabricPoint("websearch"), {2, 4});
}

TEST(FabricParallelTest, AllToAllShardCountInvariant) {
  occamy::testing::ExpectShardCountInvariant(FabricPoint("alltoall"), {2, 4});
}

TEST(FabricParallelTest, AllReduceShardCountInvariant) {
  occamy::testing::ExpectShardCountInvariant(FabricPoint("allreduce"), {2});
}

// ---- runner-level knobs the PointSpec harness cannot reach ----

FabricRunSpec SmokeSpec(BgPattern pattern, uint64_t seed = 1) {
  FabricRunSpec run;
  run.scheme = Scheme::kOccamy;
  run.pattern = pattern;
  run.bg_load = 0.6;
  if (pattern != BgPattern::kWebSearch) run.bg_fixed_size = 256 * 1024;
  if (pattern == BgPattern::kWebSearch) run.bg_load = 0.9;
  run.duration = Milliseconds(2);
  run.drain = Milliseconds(10);
  run.seed = seed;
  run.scale = BenchScale::kSmoke;
  return run;
}

// Every deterministic field of a FabricRunResult (excludes the wall-clock
// parallel_efficiency and the engine id itself).
void ExpectIdentical(const FabricRunResult& a, const FabricRunResult& b,
                     const std::string& label) {
  EXPECT_EQ(a.qct_avg_ms, b.qct_avg_ms) << label;
  EXPECT_EQ(a.qct_p99_ms, b.qct_p99_ms) << label;
  EXPECT_EQ(a.qct_avg_slow, b.qct_avg_slow) << label;
  EXPECT_EQ(a.qct_p99_slow, b.qct_p99_slow) << label;
  EXPECT_EQ(a.fct_avg_slow, b.fct_avg_slow) << label;
  EXPECT_EQ(a.fct_p99_slow, b.fct_p99_slow) << label;
  EXPECT_EQ(a.fct_small_p99_slow, b.fct_small_p99_slow) << label;
  EXPECT_EQ(a.queries_completed, b.queries_completed) << label;
  EXPECT_EQ(a.bg_flows_completed, b.bg_flows_completed) << label;
  EXPECT_EQ(a.telemetry.drops, b.telemetry.drops) << label;
  EXPECT_EQ(a.telemetry.expelled, b.telemetry.expelled) << label;
  EXPECT_EQ(a.delivered_bytes, b.delivered_bytes) << label;
  EXPECT_EQ(a.telemetry.peak_occupancy_bytes, b.telemetry.peak_occupancy_bytes) << label;
  EXPECT_EQ(a.telemetry.sim_events, b.telemetry.sim_events) << label;
}

TEST(FabricParallelTest, ThreadedAndInlineExecutionMatch) {
  FabricRunSpec run = SmokeSpec(BgPattern::kAllToAll, /*seed=*/3);
  run.shards = 4;
  run.shard_threads = true;
  const FabricRunResult threaded = RunFabric(run);
  run.shard_threads = false;
  const FabricRunResult inline_run = RunFabric(run);
  ExpectIdentical(threaded, inline_run, "threads vs inline");
}

TEST(FabricParallelTest, ShardedResultCarriesEngineFields) {
  FabricRunSpec run = SmokeSpec(BgPattern::kWebSearch);
  run.shards = 2;
  const FabricRunResult r = RunFabric(run);
  EXPECT_EQ(r.telemetry.shards, 2);
  EXPECT_GT(r.telemetry.parallel_efficiency, 0.0);
  run.shards = 0;  // legacy engine reports itself as such
  const FabricRunResult legacy = RunFabric(run);
  EXPECT_EQ(legacy.telemetry.shards, 0);
  EXPECT_GT(legacy.queries_completed, 0);
}

}  // namespace
}  // namespace occamy::exp
