// Differential-oracle suite for the partition-parallel engine: every fabric
// scenario must produce byte-identical JSON metrics at --shards=1/2/4, and
// a sharded fabric run the same results with worker threads on or off.
// shards=1 stages no mail and runs on one thread, so it is the oracle; see
// tests/differential.h for the comparison machinery.
//
// The CI seed-matrix step reruns this suite with OCCAMY_TEST_SEED=1..3 so
// seed-dependent nondeterminism surfaces before merge.
#include "tests/differential.h"

#include "src/exp/burst_lab.h"
#include "src/exp/fabric_run.h"

namespace occamy {
namespace {

exp::PointSpec SmokePoint(const std::string& scenario, const std::string& bm,
                          double duration_ms, uint64_t seed = 1) {
  exp::PointSpec spec;
  spec.scenario = scenario;
  spec.bm = bm;
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = duration_ms;
  spec.seed = testing::ShiftedSeed(seed);
  return spec;
}

// ---- fabric (§6.4): node-affinity sharding ----

TEST(DifferentialTest, WebSearchFabricShardCountInvariant) {
  testing::ExpectShardCountInvariant(SmokePoint("websearch", "occamy", 2), {2, 4});
}

// Different seeds must each satisfy the invariant independently (the
// windowed algorithm has no seed-specific paths).
TEST(DifferentialTest, SeedSweepShardCountInvariant) {
  for (const uint64_t seed : {7u, 23u}) {
    testing::ExpectShardCountInvariant(SmokePoint("websearch", "occamy", 2, seed), {2});
  }
}

// ---- runner-level knobs the PointSpec harness cannot reach ----

// Worker threads on/off run the identical batched protocol (the inline
// path calls the same PlanBatch/StepBatch at the same points), so a
// sharded fabric run plans the same barrier rounds either way.
TEST(DifferentialTest, FabricThreadedAndInlineBatchedExecutionMatch) {
  exp::FabricRunSpec run;
  run.scheme = exp::Scheme::kOccamy;
  run.scale = exp::BenchScale::kSmoke;
  run.duration = Milliseconds(2);
  run.seed = testing::ShiftedSeed(1);
  run.shards = 2;
  run.shard_threads = true;
  const exp::FabricRunResult threaded = exp::RunFabric(run);
  run.shard_threads = false;
  const exp::FabricRunResult inline_run = exp::RunFabric(run);
  EXPECT_EQ(threaded.delivered_bytes, inline_run.delivered_bytes);
  EXPECT_EQ(threaded.telemetry.drops, inline_run.telemetry.drops);
  EXPECT_EQ(threaded.telemetry.sim_events, inline_run.telemetry.sim_events);
  EXPECT_GT(threaded.telemetry.sim_events, 0);
  EXPECT_EQ(threaded.telemetry.windows_run, inline_run.telemetry.windows_run);
  EXPECT_EQ(threaded.telemetry.windows_executed, inline_run.telemetry.windows_executed);
  EXPECT_EQ(threaded.telemetry.max_window_batch, inline_run.telemetry.max_window_batch);
}

// ---- schema-v6 observability counters (src/obs/counters.h) ----

// The counter-registry fields ride inside the deterministic fingerprint, so
// every invariance test above already covers them; this asserts they are
// actually *present* (a silently-missing field would make that coverage
// vacuous) and sane on a run that queues and drops.
TEST(DifferentialTest, ObsCountersEmittedInMetrics) {
  exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2);
  spec.shards = 1;
  const exp::Metrics m = testing::RunPointOrFail(spec);
  EXPECT_EQ(m.Number("schema_version"), 8);
  for (const char* key :
       {"mailbox_drained_events", "mailbox_staged_events", "queue_delay_max_ns",
        "queue_delay_p50_ns", "queue_delay_p99_ns", "queue_delay_samples",
        "queue_drops_max", "queues_with_drops", "worst_queue_delay_p99_ns"}) {
    EXPECT_NE(m.Find(key), nullptr) << key;
  }
  EXPECT_GT(m.Number("queue_delay_samples"), 0);
  EXPECT_GE(m.Number("queue_delay_p99_ns"), m.Number("queue_delay_p50_ns"));
  EXPECT_GE(m.Number("queue_delay_max_ns"), m.Number("queue_delay_p99_ns"));
}

// The mailbox counters count cross-shard deliveries, so they depend on the
// shard count and stay out of the fingerprint; here their conservation law,
// staged == drained, on a run whose mail crosses shards.
TEST(DifferentialTest, MailboxStagedEqualsDrained) {
  exp::PointSpec spec = SmokePoint("websearch", "occamy", 2);
  spec.shards = 4;
  const exp::Metrics m = testing::RunPointOrFail(spec);
  EXPECT_EQ(m.Number("mailbox_staged_events"), m.Number("mailbox_drained_events"));
}

// The P4 burst lab runs on one shard and reports the engine fields.
TEST(DifferentialTest, BurstLabRunsOnOneShard) {
  const exp::BurstLabResult r = exp::RunBurstLab(exp::BurstLabSpec{});
  EXPECT_EQ(r.telemetry.shards, 1);
  EXPECT_GT(r.telemetry.parallel_efficiency, 0.0);
  EXPECT_GT(r.telemetry.sim_events, 0);
}

}  // namespace
}  // namespace occamy
