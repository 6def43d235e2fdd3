// Differential-oracle suite for the partition-parallel engine: every fabric
// scenario must produce byte-identical JSON metrics at --shards=1/2/4.
// shards=1 runs the identical windowed algorithm single-threaded, so it is
// the oracle; see tests/differential.h for the comparison machinery. Star
// and P4 scenarios run on one shard, where window batching and worker
// threads on/off must still leave every deterministic metric unchanged.
//
// The CI seed-matrix step reruns this suite with OCCAMY_TEST_SEED=1..3 so
// seed-dependent nondeterminism surfaces before merge.
#include "tests/differential.h"

#include "src/exp/burst_lab.h"
#include "src/exp/dpdk_run.h"
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

// Worker threads on/off run the identical windowed algorithm: star engine.
TEST(DifferentialTest, StarThreadedAndInlineExecutionMatch) {
  exp::DpdkRunSpec run;
  run.scheme = exp::Scheme::kOccamy;
  run.scale = exp::BenchScale::kSmoke;
  run.duration = run.max_duration = Milliseconds(2);
  run.min_queries = 0;
  run.seed = testing::ShiftedSeed(1);
  run.shards = 1;
  run.shard_threads = true;
  const exp::DpdkRunResult threaded = exp::RunDpdk(run);
  run.shard_threads = false;
  const exp::DpdkRunResult inline_run = exp::RunDpdk(run);
  EXPECT_EQ(threaded.qct_avg_ms, inline_run.qct_avg_ms);
  EXPECT_EQ(threaded.fct_avg_ms, inline_run.fct_avg_ms);
  EXPECT_EQ(threaded.delivered_bytes, inline_run.delivered_bytes);
  EXPECT_EQ(threaded.telemetry.drops, inline_run.telemetry.drops);
  EXPECT_EQ(threaded.rtos, inline_run.rtos);
  EXPECT_EQ(threaded.telemetry.sim_events, inline_run.telemetry.sim_events);
  EXPECT_GT(threaded.telemetry.sim_events, 0);
}

// ---- window batching (adaptive drain scheduling) ----

// Star: every window-batch setting maps onto the batch=1 fingerprint.
TEST(DifferentialTest, StarWindowBatchInvariant) {
  exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2);
  spec.shards = 1;
  testing::ExpectWindowBatchInvariant(spec, {0, 4, 16});
}

// P4 burst lab: open-loop senders, single partition.
TEST(DifferentialTest, BurstWindowBatchInvariant) {
  exp::PointSpec spec = SmokePoint("burst", "occamy", 1);
  spec.shards = 1;
  testing::ExpectWindowBatchInvariant(spec, {0, 4});
}

// Fabric: node-affinity sharding, 10us lookahead.
TEST(DifferentialTest, FabricWindowBatchInvariant) {
  exp::PointSpec spec = SmokePoint("websearch", "occamy", 2);
  spec.shards = 2;
  testing::ExpectWindowBatchInvariant(spec, {0, 4});
}

// Batching must also hold with faults armed: the drain fences registered at
// Arm() keep every reroute/loss toggle on a barrier boundary, so the
// faulted fingerprints stay byte-identical to the batch=1 schedule.
TEST(DifferentialTest, FaultedWindowBatchInvariant) {
  exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2);
  spec.shards = 1;
  spec.faults =
      "link_down:t=500us,dur=300us,node=sw0,port=1;"
      "gilbert:p_gb=0.05,p_bg=0.3,loss_bad=0.3,slot=50us,seed=5";
  testing::ExpectWindowBatchInvariant(spec, {0, 4, 16});
}

// And across shard counts at a fixed non-trivial batch: the staged-mail
// signal is shard-count invariant, so the batched schedule is too.
TEST(DifferentialTest, ShardCountInvariantAtFixedBatch) {
  exp::PointSpec spec = SmokePoint("websearch", "occamy", 2);
  spec.window_batch = 4;
  testing::ExpectShardCountInvariant(spec, {2, 4});
}

// Threads on/off at a fixed batch > 1 run the identical batched protocol
// (the inline path calls the same PlanBatch/StepBatch at the same points).
TEST(DifferentialTest, StarThreadedAndInlineBatchedExecutionMatch) {
  exp::DpdkRunSpec run;
  run.scheme = exp::Scheme::kOccamy;
  run.scale = exp::BenchScale::kSmoke;
  run.duration = run.max_duration = Milliseconds(2);
  run.min_queries = 0;
  run.seed = testing::ShiftedSeed(1);
  run.shards = 1;
  run.window_batch = 4;
  run.shard_threads = true;
  const exp::DpdkRunResult threaded = exp::RunDpdk(run);
  run.shard_threads = false;
  const exp::DpdkRunResult inline_run = exp::RunDpdk(run);
  EXPECT_EQ(threaded.qct_avg_ms, inline_run.qct_avg_ms);
  EXPECT_EQ(threaded.fct_avg_ms, inline_run.fct_avg_ms);
  EXPECT_EQ(threaded.delivered_bytes, inline_run.delivered_bytes);
  EXPECT_EQ(threaded.telemetry.drops, inline_run.telemetry.drops);
  EXPECT_EQ(threaded.rtos, inline_run.rtos);
  EXPECT_EQ(threaded.telemetry.sim_events, inline_run.telemetry.sim_events);
  EXPECT_GT(threaded.telemetry.sim_events, 0);
  // The batch schedule itself is part of the determinism contract: both
  // paths must plan the same barrier rounds, not just the same metrics.
  EXPECT_EQ(threaded.telemetry.windows_run, inline_run.telemetry.windows_run);
  EXPECT_EQ(threaded.telemetry.windows_executed, inline_run.telemetry.windows_executed);
  EXPECT_EQ(threaded.telemetry.max_window_batch, inline_run.telemetry.max_window_batch);
}

// Fabric twin of the above, at the adaptive setting.
TEST(DifferentialTest, FabricThreadedAndInlineBatchedExecutionMatch) {
  exp::FabricRunSpec run;
  run.scheme = exp::Scheme::kOccamy;
  run.scale = exp::BenchScale::kSmoke;
  run.duration = Milliseconds(2);
  run.seed = testing::ShiftedSeed(1);
  run.shards = 2;
  run.window_batch = 0;  // adaptive
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

// Property: with faults armed (reroute via link_down + gilbert loss), the
// batched fingerprint is byte-identical to batch=1 for several seeds — and
// the adaptive run never does *more* barrier rounds than legacy.
TEST(DifferentialProperty, BatchedFingerprintsMatchUnderFaults) {
  for (const uint64_t seed : {3u, 11u}) {
    exp::PointSpec spec = SmokePoint("burst_absorption", "occamy", 2, seed);
    spec.shards = 1;
    spec.faults =
        "link_down:t=400us,dur=200us,node=sw0,port=2;"
        "gilbert:p_gb=0.1,p_bg=0.2,loss_bad=0.5,slot=50us,seed=7";
    spec.window_batch = 1;
    const exp::Metrics legacy = testing::RunPointOrFail(spec);
    const std::string oracle = testing::DeterministicFingerprint(legacy);
    for (const int batch : {0, 8}) {
      spec.window_batch = batch;
      const exp::Metrics batched = testing::RunPointOrFail(spec);
      EXPECT_EQ(oracle, testing::DeterministicFingerprint(batched))
          << "seed=" << seed << " window_batch=" << batch;
      EXPECT_LE(batched.Number("windows_run"), legacy.Number("windows_run"))
          << "seed=" << seed << " window_batch=" << batch;
    }
  }
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

// The mailbox counters are deterministic per engine: DeliverAfter always
// stages its record in sharded mode, so staged == drained and both are
// invariant across shard counts >= 1 (the fingerprint tests enforce that);
// here the conservation law itself, on a run whose mail crosses shards.
TEST(DifferentialTest, MailboxStagedEqualsDrained) {
  exp::PointSpec spec = SmokePoint("websearch", "occamy", 2);
  spec.shards = 4;
  const exp::Metrics m = testing::RunPointOrFail(spec);
  EXPECT_EQ(m.Number("mailbox_staged_events"), m.Number("mailbox_drained_events"));
}

// Same for the P4 burst lab, plus the engine-id fields.
TEST(DifferentialTest, BurstLabThreadedAndInlineExecutionMatch) {
  exp::BurstLabSpec spec;
  spec.scheme = exp::Scheme::kOccamy;
  spec.horizon = Milliseconds(1);
  spec.seed = testing::ShiftedSeed(1);
  spec.shards = 1;
  spec.shard_threads = true;
  const exp::BurstLabResult threaded = exp::RunBurstLab(spec);
  spec.shard_threads = false;
  const exp::BurstLabResult inline_run = exp::RunBurstLab(spec);
  EXPECT_EQ(threaded.burst_packets, inline_run.burst_packets);
  EXPECT_EQ(threaded.burst_drops, inline_run.burst_drops);
  EXPECT_EQ(threaded.long_lived_drops, inline_run.long_lived_drops);
  EXPECT_EQ(threaded.telemetry.expelled, inline_run.telemetry.expelled);
  EXPECT_EQ(threaded.telemetry.sim_events, inline_run.telemetry.sim_events);
  EXPECT_GT(threaded.telemetry.sim_events, 0);
  EXPECT_EQ(threaded.telemetry.shards, 1);
  EXPECT_GT(threaded.telemetry.parallel_efficiency, 0.0);
  const exp::BurstLabResult legacy = exp::RunBurstLab(exp::BurstLabSpec{});
  EXPECT_EQ(legacy.telemetry.shards, 0);
}

}  // namespace
}  // namespace occamy
