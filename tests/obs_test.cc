// Unit tests for src/obs: the deterministic counter surface (DelayHistogram,
// CounterRegistry, BufferObs), the trace recorder + macros, and the Chrome /
// profile exporters. The determinism-facing suites (merge commutativity,
// sorted emission order) are what backs the schema-v6 shard-count-invariance
// contract exercised end to end by differential_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/counters.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace occamy::obs {
namespace {

// ---------------------------------------------------------------------------
// DelayHistogram

TEST(DelayHistogramTest, ExactBelowSubBucketRange) {
  // Values < 16 land in their own bucket: quantiles are exact, not midpoints.
  DelayHistogram h;
  for (int64_t v = 0; v < 16; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.max(), 15);
  EXPECT_EQ(h.Quantile(0.0), 0);
  EXPECT_EQ(h.Quantile(0.5), 7);
  EXPECT_EQ(h.Quantile(1.0), 15);
}

TEST(DelayHistogramTest, BucketIndexMonotonicAndConsistent) {
  // BucketIndex must be non-decreasing in v, and each value must fall at or
  // above its bucket's inclusive lower bound.
  int prev = -1;
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{15}, uint64_t{16},
                     uint64_t{17}, uint64_t{31}, uint64_t{32}, uint64_t{1000},
                     uint64_t{1} << 20, (uint64_t{1} << 20) + 12345,
                     uint64_t{1} << 40, uint64_t{1} << 62}) {
    const int idx = DelayHistogram::BucketIndex(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    EXPECT_GE(static_cast<int64_t>(v), DelayHistogram::BucketLowerBound(idx))
        << "v=" << v;
    EXPECT_LT(idx, DelayHistogram::kBuckets) << "v=" << v;
    prev = idx;
  }
}

TEST(DelayHistogramTest, QuantileBoundedRelativeError) {
  // Above the exact region the midpoint estimate stays within one bucket
  // width (1/16 relative) of the true value.
  DelayHistogram h;
  const int64_t v = 123456789;  // ~123 us in ps
  h.Record(v);
  const int64_t est = h.Quantile(0.5);
  EXPECT_NEAR(static_cast<double>(est), static_cast<double>(v),
              static_cast<double>(v) / 16.0);
  // Max is exact and quantiles never exceed it.
  EXPECT_EQ(h.max(), v);
  EXPECT_LE(h.Quantile(1.0), v);
}

TEST(DelayHistogramTest, NegativeValuesClampToZero) {
  DelayHistogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.Quantile(1.0), 0);
}

TEST(DelayHistogramTest, MergeEqualsBulkRecord) {
  // Splitting a sample stream across shards and merging must reproduce the
  // single-stream histogram exactly — the invariance the schema-v6 delay
  // percentiles rely on.
  DelayHistogram bulk, part_a, part_b;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = static_cast<int64_t>(i) * 977 + 13;
    bulk.Record(v);
    (i % 2 == 0 ? part_a : part_b).Record(v);
  }
  DelayHistogram ab = part_a;
  ab.MergeFrom(part_b);
  DelayHistogram ba = part_b;
  ba.MergeFrom(part_a);
  for (const DelayHistogram* merged : {&ab, &ba}) {
    EXPECT_EQ(merged->count(), bulk.count());
    EXPECT_EQ(merged->max(), bulk.max());
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(merged->Quantile(q), bulk.Quantile(q)) << "q=" << q;
    }
  }
}

TEST(DelayHistogramTest, EmptyIsSafe) {
  DelayHistogram h;
  EXPECT_TRUE(h.Empty());
  EXPECT_EQ(h.Quantile(0.99), 0);
  EXPECT_EQ(h.max(), 0);
}

// ---------------------------------------------------------------------------
// CounterRegistry

TEST(CounterRegistryTest, AddAccumulatesAndSetMaxKeepsHighWater) {
  CounterRegistry reg;
  reg.Add("drops", 3);
  reg.Add("drops", 4);
  reg.SetMax("peak", 10);
  reg.SetMax("peak", 7);
  EXPECT_EQ(reg.Value("drops"), 7);
  EXPECT_EQ(reg.Value("peak"), 10);
  EXPECT_EQ(reg.Value("missing"), 0);
}

TEST(CounterRegistryTest, EntriesSortedByName) {
  // Emission order is iteration order, so sortedness is what makes the JSON
  // field order deterministic regardless of registration order.
  CounterRegistry reg;
  reg.Add("zeta", 1);
  reg.Add("alpha", 1);
  reg.SetMax("mid", 1);
  const auto& entries = reg.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].name, "alpha");
  EXPECT_EQ(entries[1].name, "mid");
  EXPECT_EQ(entries[2].name, "zeta");
}

TEST(CounterRegistryTest, MergeIsCommutative) {
  CounterRegistry a, b;
  a.Add("events", 5);
  a.SetMax("depth", 3);
  b.Add("events", 7);
  b.Add("drops", 2);
  b.SetMax("depth", 9);

  CounterRegistry ab = a;
  ab.MergeFrom(b);
  CounterRegistry ba = b;
  ba.MergeFrom(a);
  for (const CounterRegistry* merged : {&ab, &ba}) {
    EXPECT_EQ(merged->Value("events"), 12);
    EXPECT_EQ(merged->Value("drops"), 2);
    EXPECT_EQ(merged->Value("depth"), 9);
  }
  ASSERT_EQ(ab.entries().size(), ba.entries().size());
  for (size_t i = 0; i < ab.entries().size(); ++i) {
    EXPECT_EQ(ab.entries()[i].name, ba.entries()[i].name);
    EXPECT_EQ(ab.entries()[i].value, ba.entries()[i].value);
  }
}

TEST(BufferObsTest, AddQueueAggregates) {
  DelayHistogram fast, slow;
  fast.Record(100);
  slow.Record(1000000);
  BufferObs obs;
  obs.AddQueue(fast, /*drops=*/0);
  obs.AddQueue(slow, /*drops=*/42);
  obs.AddQueue(DelayHistogram{}, /*drops=*/5);  // empty queue, some drops
  EXPECT_EQ(obs.all_delays.count(), 2u);
  EXPECT_EQ(obs.queues_with_drops, 2u);
  EXPECT_EQ(obs.queue_drops_max, 42u);
  // Worst per-queue p99 tracks the slow queue, not the merged distribution.
  EXPECT_GE(obs.worst_queue_p99_ps, slow.Quantile(0.99));
}

// ---------------------------------------------------------------------------
// TraceRecorder + macros

class TraceRecorderTest : public ::testing::Test {
 protected:
  void TearDown() override { TraceRecorder::Get().Clear(); }
};

TraceEvent MakeInstant(const char* name, uint64_t ts_ns, int32_t shard) {
  TraceEvent ev;
  ev.name = name;
  ev.ts_ns = ts_ns;
  ev.shard = shard;
  ev.phase = 'i';
  return ev;
}

TEST_F(TraceRecorderTest, DisabledByDefaultAndStartStopToggles) {
  EXPECT_FALSE(TraceRecorder::Enabled());
  TraceRecorder::Get().Start(2);
  EXPECT_TRUE(TraceRecorder::Enabled());
  EXPECT_EQ(TraceRecorder::Get().shards(), 2);
  TraceRecorder::Get().Stop();
  EXPECT_FALSE(TraceRecorder::Enabled());
}

TEST_F(TraceRecorderTest, SortedEventsOrdersByTimestampThenShard) {
  TraceRecorder& rec = TraceRecorder::Get();
  rec.Start(2, /*capacity=*/8);
  rec.Record(MakeInstant("b", 300, 1));
  rec.Record(MakeInstant("a", 100, 0));
  rec.Record(MakeInstant("tie1", 200, 1));
  rec.Record(MakeInstant("tie0", 200, 0));
  rec.Stop();
  const std::vector<TraceEvent> events = rec.SortedEvents();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_STREQ(events[1].name, "tie0");  // ts tie broken by shard
  EXPECT_STREQ(events[2].name, "tie1");
  EXPECT_STREQ(events[3].name, "b");
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST_F(TraceRecorderTest, RingWrapsKeepsTailAndCountsDropped) {
  TraceRecorder& rec = TraceRecorder::Get();
  rec.Start(1, /*capacity=*/4);
  for (uint64_t i = 0; i < 10; ++i) rec.Record(MakeInstant("e", i, 0));
  rec.Stop();
  const std::vector<TraceEvent> events = rec.SortedEvents();
  ASSERT_EQ(events.size(), 4u);
  // The newest events survive the wrap.
  EXPECT_EQ(events.front().ts_ns, 6u);
  EXPECT_EQ(events.back().ts_ns, 9u);
  EXPECT_EQ(rec.dropped(), 6u);
}

TEST_F(TraceRecorderTest, OutOfRangeShardDiscarded) {
  TraceRecorder& rec = TraceRecorder::Get();
  rec.Start(1, /*capacity=*/4);
  rec.Record(MakeInstant("ok", 1, 0));
  rec.Record(MakeInstant("stray", 2, 7));
  rec.Stop();
  EXPECT_EQ(rec.SortedEvents().size(), 1u);
}

TEST_F(TraceRecorderTest, MacrosRecordWhenCompiledAndEnabled) {
  if (!kTraceCompiled) GTEST_SKIP() << "OCCAMY_TRACE=OFF build";
  TraceRecorder& rec = TraceRecorder::Get();
  rec.Start(1, /*capacity=*/16);
  {
    OCCAMY_TRACE_SPAN(span, "test.span");
    OCCAMY_TRACE_SPAN_ARG(span, "n", 42);
    OCCAMY_TRACE_INSTANT("test.instant");
    OCCAMY_TRACE_INSTANT_ARG("test.arg", "bytes", 1500);
  }
  rec.Stop();
  const std::vector<TraceEvent> events = rec.SortedEvents();
  ASSERT_EQ(events.size(), 3u);
  // Don't assume clock resolution separates the three timestamps; look each
  // event up by name.
  auto find = [&events](const char* name) -> const TraceEvent* {
    for (const TraceEvent& ev : events) {
      if (std::string(ev.name) == name) return &ev;
    }
    return nullptr;
  };
  const TraceEvent* span_ev = find("test.span");
  ASSERT_NE(span_ev, nullptr);
  EXPECT_EQ(span_ev->phase, 'X');
  ASSERT_NE(span_ev->arg_name, nullptr);
  EXPECT_STREQ(span_ev->arg_name, "n");
  EXPECT_EQ(span_ev->arg, 42);
  const TraceEvent* instant_ev = find("test.instant");
  ASSERT_NE(instant_ev, nullptr);
  EXPECT_EQ(instant_ev->phase, 'i');
  // The span opened before the instant fired and closed after it.
  EXPECT_LE(span_ev->ts_ns, instant_ev->ts_ns);
  EXPECT_GE(span_ev->ts_ns + span_ev->dur_ns, instant_ev->ts_ns);
  const TraceEvent* arg_ev = find("test.arg");
  ASSERT_NE(arg_ev, nullptr);
  EXPECT_EQ(arg_ev->arg, 1500);
}

TEST_F(TraceRecorderTest, MacrosAreNoOpsWhenDisabled) {
  // Recorder armed for shard 0 but *stopped*: macros must not record.
  TraceRecorder& rec = TraceRecorder::Get();
  rec.Start(1, /*capacity=*/16);
  rec.Stop();
  {
    OCCAMY_TRACE_SPAN(span, "test.span");
    OCCAMY_TRACE_INSTANT("test.instant");
  }
  EXPECT_TRUE(rec.SortedEvents().empty());
}

// ---------------------------------------------------------------------------
// Exporters

TEST(ChromeTraceTest, EmitsMetadataAndNormalizedTimestamps) {
  std::vector<TraceEvent> events;
  TraceEvent span;
  span.name = "window.execute";
  span.ts_ns = 5'000'500;  // normalizes to 0 us
  span.dur_ns = 1'500;     // 1.500 us
  span.shard = 1;
  span.phase = 'X';
  span.arg_name = "events";
  span.arg = 32;
  events.push_back(span);
  events.push_back(MakeInstant("buf.enqueue", 5'002'000, 0));

  std::ostringstream out;
  WriteChromeTrace(events, /*shards=*/2, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"shard 0\"}"), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"shard 1\"}"), std::string::npos);
  // First event's ts normalizes to the trace start; dur keeps ns precision.
  EXPECT_NE(json.find("\"ts\":0.000,\"dur\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"events\":32}"), std::string::npos);
  // The instant is 1500 ns after the base, scoped to its thread.
  EXPECT_NE(json.find("\"ts\":1.500,\"s\":\"t\""), std::string::npos);
  // Well-formed closing.
  EXPECT_EQ(json.rfind("]}\n"), json.size() - 3);
}

TEST(ProfileReportTest, AggregatesSpansPerShard) {
  std::vector<TraceEvent> events;
  auto add_span = [&events](const char* name, uint64_t ts, uint64_t dur,
                            int32_t shard, int64_t arg = 0, const char* arg_name = nullptr) {
    TraceEvent ev;
    ev.name = name;
    ev.ts_ns = ts;
    ev.dur_ns = dur;
    ev.shard = shard;
    ev.phase = 'X';
    ev.arg_name = arg_name;
    ev.arg = arg;
    events.push_back(ev);
  };
  add_span(kSpanWindowExecute, 0, 800, 0);
  add_span(kSpanRunCore, 0, 700, 0, /*arg=*/5, "events");
  add_span(kSpanBarrierWindow, 800, 200, 0);
  add_span(kSpanWindowExecute, 0, 400, 1);
  add_span(kSpanBarrierPlan, 400, 100, 1);
  add_span(kSpanMailboxDrain, 500, 50, 1);

  const ProfileReport report = BuildProfileReport(events, /*shards=*/2,
                                                  /*trace_dropped=*/3);
  ASSERT_EQ(report.shards.size(), 2u);
  EXPECT_EQ(report.shards[0].busy_ns, 800u);
  EXPECT_EQ(report.shards[0].barrier_ns, 200u);
  EXPECT_EQ(report.shards[0].events, 5u);
  EXPECT_EQ(report.shards[0].windows, 1u);
  EXPECT_EQ(report.shards[1].busy_ns, 400u);
  EXPECT_EQ(report.shards[1].barrier_ns, 100u);
  EXPECT_EQ(report.shards[1].drain_ns, 50u);
  EXPECT_EQ(report.wall_ns, 1000u);
  // barrier / (busy + barrier + drain) = 300 / 1550.
  EXPECT_NEAR(report.barrier_overhead_frac, 300.0 / 1550.0, 1e-12);
  // Batch of 5 events -> density bucket 3 ([4, 7]).
  ASSERT_GT(report.density.size(), 3u);
  EXPECT_EQ(report.density[3], 1u);
  EXPECT_EQ(report.trace_dropped, 3u);

  const std::string text = FormatProfileReport(report);
  EXPECT_NE(text.find("2 shard(s)"), std::string::npos);
  EXPECT_NE(text.find("barrier overhead:"), std::string::npos);
}

TEST(ProfileReportTest, EmptyInputIsSafe) {
  const ProfileReport report = BuildProfileReport({}, /*shards=*/0, 0);
  EXPECT_EQ(report.shards.size(), 1u);
  EXPECT_EQ(report.wall_ns, 0u);
  EXPECT_EQ(report.barrier_overhead_frac, 0.0);
  const std::string text = FormatProfileReport(report);
  EXPECT_NE(text.find("(no run.core spans recorded)"), std::string::npos);
  // With zero accounted time everywhere, every ratio renders as an explicit
  // 0 with the no-samples marker — never NaN/inf from a 0/0.
  EXPECT_NE(text.find("(no-samples)"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

TEST(ProfileReportTest, ShardWithNoSpansRendersZerosWithMarker) {
  // Shard 1 recorded nothing (e.g. the trace window closed before it ran):
  // its row must be explicit zeros plus a marker, not a ratio over nothing,
  // while the populated shard renders normally.
  std::vector<TraceEvent> events;
  TraceEvent span;
  span.name = kSpanWindowExecute;
  span.ts_ns = 0;
  span.dur_ns = 500;
  span.shard = 0;
  span.phase = 'X';
  events.push_back(span);
  const ProfileReport report = BuildProfileReport(events, /*shards=*/2, 0);
  const std::string text = FormatProfileReport(report);
  EXPECT_NE(text.find("  (no-samples)"), std::string::npos);
  EXPECT_EQ(text.find("nan"), std::string::npos);
  // The aggregate barrier line has samples (shard 0), so no marker there.
  EXPECT_NE(text.find("barrier overhead: 0.0% of accounted worker time\n"),
            std::string::npos);
}

TEST(ProfileReportTest, WindowBatchingLineAggregatesPlanSpanArgs) {
  // Only the plan leader's span carries batch_windows; bare plan spans (the
  // other shards' barrier waits) must not count as rounds.
  std::vector<TraceEvent> events;
  auto add_plan = [&events](uint64_t ts, int64_t batch_windows) {
    TraceEvent ev;
    ev.name = kSpanBarrierPlan;
    ev.ts_ns = ts;
    ev.dur_ns = 10;
    ev.shard = 0;
    ev.phase = 'X';
    if (batch_windows > 0) {
      ev.arg_name = "batch_windows";
      ev.arg = batch_windows;
    }
    events.push_back(ev);
  };
  add_plan(0, 3);
  add_plan(100, 5);
  add_plan(200, 0);  // follower's wait span: no arg, no round
  const ProfileReport report = BuildProfileReport(events, /*shards=*/1, 0);
  EXPECT_EQ(report.plan_rounds, 2u);
  EXPECT_EQ(report.planned_windows, 8u);
  EXPECT_EQ(report.max_batch, 5u);
  const std::string text = FormatProfileReport(report);
  EXPECT_NE(
      text.find(
          "window batching: 2 plan rounds covering 8 windows (avg batch 4.00, max 5)"),
      std::string::npos);
}

TEST(ProfileReportTest, QueueCountsTakeEachShardsLatestInstant) {
  // Each run ends with a shard's cumulative delivery counts, so a shard
  // that ran twice reports its larger (later) values.
  std::vector<TraceEvent> events;
  auto add_count = [&events](const char* name, const char* arg_name, int32_t shard,
                             int64_t value) {
    TraceEvent ev;
    ev.name = name;
    ev.arg_name = arg_name;
    ev.arg = value;
    ev.shard = shard;
    ev.phase = 'i';
    events.push_back(ev);
  };
  add_count(kInstantQueueDeliveries, "fifo", 0, 10);
  add_count(kInstantQueueDeliveries, "fifo", 0, 25);
  add_count(kInstantQueueFallbacks, "deliveries", 1, 7);
  const ProfileReport report = BuildProfileReport(events, /*shards=*/2, 0);
  EXPECT_TRUE(report.has_queue_counts);
  EXPECT_EQ(report.shards[0].fifo_deliveries, 25u);
  EXPECT_EQ(report.shards[0].delivery_fallbacks, 0u);
  EXPECT_EQ(report.shards[1].delivery_fallbacks, 7u);
  const std::string text = FormatProfileReport(report);
  EXPECT_NE(text.find("    0               25          0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("    1                0          7\n"), std::string::npos) << text;
  // A trace without the instants prints no count table.
  EXPECT_EQ(FormatProfileReport(BuildProfileReport({}, 1, 0)).find("fallbacks"),
            std::string::npos);
}

TEST(ProfileReportTest, NoWindowBatchingLineWithoutPlanRounds) {
  // A trace without plan spans (a bare Simulator's run); the report must
  // omit the batching line instead of dividing by zero rounds.
  std::vector<TraceEvent> events;
  TraceEvent core;
  core.name = kSpanRunCore;
  core.ts_ns = 0;
  core.dur_ns = 100;
  core.shard = 0;
  core.phase = 'X';
  core.arg_name = "events";
  core.arg = 4;
  events.push_back(core);
  const ProfileReport report = BuildProfileReport(events, /*shards=*/1, 0);
  EXPECT_EQ(report.plan_rounds, 0u);
  const std::string text = FormatProfileReport(report);
  EXPECT_EQ(text.find("window batching:"), std::string::npos);
}

}  // namespace
}  // namespace occamy::obs
