// Tests for the experiment-orchestration subsystem (src/exp): grid
// expansion and keys, CSV aggregation, the figure registry, knob
// validation, and the determinism contract — the same sweep run twice, and
// at jobs=1 vs jobs=4, must produce byte-identical sorted JSONL.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>
#include <string>
#include <vector>

#include "src/exp/figures.h"
#include "src/exp/sinks.h"
#include "src/exp/sweep_runner.h"
#include "tests/differential.h"

namespace occamy::exp {
namespace {

SweepSpec SmallRealSpec() {
  // Two scenarios (P4 burst lab + DPDK star incast) x two schemes x two
  // seeds, at smoke scale with a short traffic window: real simulations,
  // small enough for a unit test.
  SweepSpec spec;
  spec.scenarios = {"burst", "incast"};
  spec.bms = {"dt", "occamy"};
  spec.seeds = 2;
  spec.scale = BenchScale::kSmoke;
  spec.duration_ms = 8;  // incast queries start at t=5ms, so keep a tail
  return spec;
}

// Removes the wall-clock perf fields, whose values legitimately differ from
// run to run; every other byte of the JSONL must be identical. The fields
// are never first in a record (run_key is), so each is preceded by a comma.
std::string StripPerfFields(std::string jsonl) {
  for (const std::string key :
       {"\"wall_ms\":", "\"events_per_sec\":", "\"parallel_efficiency\":"}) {
    size_t pos = 0;
    while ((pos = jsonl.find(key, pos)) != std::string::npos) {
      const size_t value_end = jsonl.find_first_of(",}", pos + key.size());
      jsonl.erase(pos - 1, value_end - (pos - 1));
    }
  }
  return jsonl;
}

std::string RunToJsonl(const SweepSpec& spec, int jobs) {
  std::vector<SweepPoint> points;
  const auto err = ExpandSweep(spec, points);
  EXPECT_FALSE(err.has_value()) << *err;
  SweepRunOptions options;
  options.jobs = jobs;
  const std::vector<RunRecord> records = RunSweep(points, options);
  for (const auto& rec : records) {
    EXPECT_TRUE(rec.ok) << rec.point.run_key << ": " << rec.error;
  }
  std::ostringstream out;
  WriteJsonl(records, out);
  return out.str();
}

TEST(SweepExpand, CartesianProductWithStableKeys) {
  SweepSpec spec;
  spec.scenarios = {"incast", "burst_absorption"};
  spec.bms = {"dt", "occamy"};
  spec.alphas = {1.0, 2.0};
  spec.seeds = 2;

  EXPECT_EQ(GridSize(spec), 16u);
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 16u);

  std::set<std::string> run_keys, cell_keys;
  for (const auto& p : points) {
    run_keys.insert(p.run_key);
    cell_keys.insert(p.cell_key);
    EXPECT_EQ(p.run_key, p.cell_key + "|seed=" + std::to_string(p.spec.seed));
  }
  EXPECT_EQ(run_keys.size(), 16u) << "run keys must be unique";
  EXPECT_EQ(cell_keys.size(), 8u) << "cells collapse the seed dimension";

  // Expansion order is scenario-major, seed-minor.
  EXPECT_EQ(points[0].run_key, "scenario=incast|bm=dt|alpha=1|seed=1");
  EXPECT_EQ(points[1].run_key, "scenario=incast|bm=dt|alpha=1|seed=2");
  EXPECT_EQ(points[2].run_key, "scenario=incast|bm=dt|alpha=2|seed=1");
  EXPECT_EQ(points.back().run_key,
            "scenario=burst_absorption|bm=occamy|alpha=2|seed=2");
}

TEST(SweepExpand, InactiveKnobsAddNoKeyFields) {
  SweepSpec spec;
  spec.scenarios = {"incast"};
  spec.bms = {"dt"};
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].run_key, "scenario=incast|bm=dt|seed=1");
  EXPECT_EQ(points[0].cell_key, "scenario=incast|bm=dt");
}

TEST(SweepExpand, RejectsUnknownNamesAndBadSeeds) {
  SweepSpec spec;
  spec.scenarios = {"no_such_scenario"};
  spec.bms = {"dt"};
  std::vector<SweepPoint> points;
  auto err = ExpandSweep(spec, points);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("no_such_scenario"), std::string::npos);

  spec.scenarios = {"incast"};
  spec.bms = {"no_such_scheme"};
  err = ExpandSweep(spec, points);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("no_such_scheme"), std::string::npos);

  spec.bms = {"dt"};
  spec.seeds = 0;
  EXPECT_TRUE(ExpandSweep(spec, points).has_value());
  EXPECT_EQ(GridSize(spec), 0u);
}

TEST(SweepExpand, RejectsKnobValuesThatCollideAfterFormatting) {
  // Keys render doubles at 6 significant digits; values differing only
  // beyond that must be rejected, not silently merged into one cell.
  SweepSpec spec;
  spec.scenarios = {"burst"};
  spec.bms = {"dt"};
  spec.alphas = {1.0000001, 1.0000002};
  std::vector<SweepPoint> points;
  const auto err = ExpandSweep(spec, points);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("duplicate run key"), std::string::npos) << *err;
}

TEST(RunPointTest, RejectsInapplicableKnobs) {
  PointSpec spec;
  spec.scenario = "websearch";  // fabric: query size derives from the buffer
  spec.bm = "dt";
  spec.query_bytes = 1000;
  const PointResult result = RunPoint(spec);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("query_bytes"), std::string::npos) << result.error;

  PointSpec burst;
  burst.scenario = "incast";
  burst.bm = "dt";
  burst.burst_bytes = 1000;
  const PointResult r2 = RunPoint(burst);
  ASSERT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("burst_bytes"), std::string::npos) << r2.error;
}

TEST(AggregateTest, MeanAndP99AcrossSeeds) {
  // Three seeds of one cell plus one seed of another; synthetic metrics.
  std::vector<RunRecord> records;
  const double values[] = {1.0, 3.0, 2.0};
  for (int i = 0; i < 3; ++i) {
    RunRecord rec;
    rec.ok = true;
    rec.point.cell_key = "scenario=a|bm=dt";
    rec.point.run_key = "scenario=a|bm=dt|seed=" + std::to_string(i + 1);
    rec.point.key_fields = {{"scenario", "a"}, {"bm", "dt"},
                            {"seed", std::to_string(i + 1)}};
    rec.metrics.Set("seed", int64_t{i + 1});
    rec.metrics.Set("qct_ms", values[i]);
    rec.metrics.Set("scenario", "a");  // string metric: not aggregated
    rec.metrics.Set("bm", 7.0);  // numeric echo of a key field: not aggregated
    records.push_back(rec);
  }
  RunRecord other;
  other.ok = false;
  other.error = "boom";
  other.point.cell_key = "scenario=b|bm=dt";
  other.point.run_key = "scenario=b|bm=dt|seed=1";
  other.point.key_fields = {{"scenario", "b"}, {"bm", "dt"}, {"seed", "1"}};
  records.push_back(other);

  const std::vector<CellSummary> cells = Aggregate(records);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].cell_key, "scenario=a|bm=dt");
  EXPECT_EQ(cells[0].runs, 3);
  EXPECT_EQ(cells[0].failed, 0);
  ASSERT_EQ(cells[0].metrics.size(), 1u) << "seed and string metrics excluded";
  EXPECT_EQ(cells[0].metrics[0].first, "qct_ms");
  EXPECT_DOUBLE_EQ(cells[0].metrics[0].second.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(cells[0].metrics[0].second.P99(), 3.0);
  EXPECT_EQ(cells[1].runs, 0);
  EXPECT_EQ(cells[1].failed, 1);

  std::ostringstream csv;
  WriteSummaryCsv(cells, csv);
  const std::string text = csv.str();
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "scenario,bm,runs,failed,qct_ms_mean,qct_ms_p99");
  EXPECT_NE(text.find("a,dt,3,0,2,3"), std::string::npos) << text;
  EXPECT_NE(text.find("b,dt,0,1,,"), std::string::npos) << text;
}

TEST(FigureRegistry, KnownFiguresExpand) {
  EXPECT_GE(Figures().size(), 3u);
  ASSERT_NE(FigureByName("fig12"), nullptr);
  ASSERT_NE(FigureByName("fig13"), nullptr);
  ASSERT_NE(FigureByName("fig18"), nullptr);
  EXPECT_EQ(FigureByName("fig99"), nullptr);

  // Fig. 12 grid: 2 schemes x 3 alphas x 6 burst sizes x 1 seed.
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(FigureByName("fig12")->make(), points).has_value());
  EXPECT_EQ(points.size(), 36u);

  // Fig. 13: 4 schemes x 7 query sizes; Fig. 18: 4 schemes x 5 flow sizes.
  ASSERT_FALSE(ExpandSweep(FigureByName("fig13")->make(), points).has_value());
  EXPECT_EQ(points.size(), 28u);
  ASSERT_FALSE(ExpandSweep(FigureByName("fig18")->make(), points).has_value());
  EXPECT_EQ(points.size(), 20u);
}

TEST(SweepDeterminism, RepeatedRunsAndJobCountsAreByteIdentical) {
  const SweepSpec spec = SmallRealSpec();
  const std::string raw = RunToJsonl(spec, 1);
  ASSERT_FALSE(raw.empty());
  // Schema v3 carries per-run perf telemetry; only the wall-clock-derived
  // fields may differ between runs (sim_events is deterministic and stays).
  EXPECT_NE(raw.find("\"wall_ms\":"), std::string::npos);
  EXPECT_NE(raw.find("\"events_per_sec\":"), std::string::npos);
  EXPECT_NE(raw.find("\"sim_events\":"), std::string::npos);
  const std::string first = StripPerfFields(raw);
  EXPECT_EQ(first, StripPerfFields(RunToJsonl(spec, 1)))
      << "same spec+seed must reproduce exactly";
  EXPECT_EQ(first, StripPerfFields(RunToJsonl(spec, 4)))
      << "job count must not affect results";

  // Sanity: the JSONL is sorted by run key and every line is a JSON object.
  std::istringstream lines(first);
  std::string line, prev_key;
  size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_EQ(line.front(), '{');
    ASSERT_EQ(line.back(), '}');
    const auto key_pos = line.find("\"run_key\":\"");
    ASSERT_NE(key_pos, std::string::npos);
    const auto start = key_pos + 11;
    const std::string key = line.substr(start, line.find('"', start) - start);
    EXPECT_LT(prev_key, key) << "lines must be sorted by run_key";
    prev_key = key;
  }
  EXPECT_EQ(n, 8u);
}

TEST(SweepDeterminism, AggregationMatchesAcrossJobCounts) {
  const SweepSpec spec = SmallRealSpec();
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());

  SweepRunOptions one, four;
  one.jobs = 1;
  four.jobs = 4;
  std::ostringstream csv1, csv4;
  WriteSummaryCsv(Aggregate(RunSweep(points, one)), csv1);
  WriteSummaryCsv(Aggregate(RunSweep(points, four)), csv4);
  EXPECT_EQ(csv1.str(), csv4.str());
  EXPECT_FALSE(csv1.str().empty());
}

TEST(SweepJobsCap, JobsTimesShardsFitsHardware) {
  // No shards: only the [1, 64] clamp applies.
  EXPECT_EQ(EffectiveSweepJobs(8, 0, 4), 8);
  EXPECT_EQ(EffectiveSweepJobs(200, 0, 4), 64);
  // Sharded runs: jobs x shards <= hardware_concurrency.
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 16), 4);
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 8), 2);
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 4), 1);
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 2), 1);   // never below 1
  EXPECT_EQ(EffectiveSweepJobs(8, 4, 0), 8);   // unknown hardware: no cap
  EXPECT_EQ(EffectiveSweepJobs(8, 1, 2), 8);   // single-shard runs uncapped
}

TEST(SweepJobsCap, RunSweepWarnsWhenCapping) {
  SweepSpec spec;
  spec.scenarios = {"websearch"};
  spec.bms = {"dt"};
  spec.scale = BenchScale::kSmoke;
  spec.duration_ms = 1;
  spec.shards = 4;
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].spec.shards, 4);  // fabric point inherits the knob

  SweepRunOptions options;
  options.jobs = 64;  // always above hw / 4, so the cap must fire
  std::vector<std::string> warnings;
  options.warn = [&](const std::string& w) { warnings.push_back(w); };
  const auto records = RunSweep(points, options);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].ok) << records[0].error;
  const auto* shards = records[0].metrics.Find("shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->i, 4);
  if (std::thread::hardware_concurrency() > 0 &&
      std::thread::hardware_concurrency() < 64 * 4) {
    ASSERT_EQ(warnings.size(), 1u);
    EXPECT_NE(warnings[0].find("capping --jobs"), std::string::npos) << warnings[0];
  }
}

// Every platform runs on the partition-parallel engine, so the execution
// knob applies to the whole grid at one shard.
TEST(SweepExpand, ShardsKnobAppliesToEveryPlatform) {
  SweepSpec spec;
  spec.scenarios = {"incast", "websearch", "burst"};
  spec.bms = {"dt"};
  spec.shards = 1;
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 3u);
  for (const auto& p : points) {
    EXPECT_EQ(p.spec.shards, 1) << p.run_key;
  }
}

// Above one shard the grid may hold fabric scenarios only; a star or P4
// scenario fails the expansion, and RunPoint refuses it too.
TEST(SweepExpand, ShardsAboveOneApplyToFabricOnly) {
  SweepSpec spec;
  spec.scenarios = {"websearch", "alltoall"};
  spec.bms = {"dt"};
  spec.shards = 2;
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  EXPECT_EQ(points.size(), 2u);
  for (const char* scenario : {"incast", "burst"}) {
    spec.scenarios = {"websearch", scenario};
    const auto err = ExpandSweep(spec, points);
    ASSERT_TRUE(err.has_value()) << scenario;
    EXPECT_NE(err->find(std::string("'") + scenario + "'"), std::string::npos) << *err;
    PointSpec point;
    point.scenario = scenario;
    point.shards = 2;
    const PointResult result = RunPoint(point);
    EXPECT_FALSE(result.ok) << scenario;
    EXPECT_NE(result.error.find("runs on one shard"), std::string::npos) << result.error;
  }
}

// A sweep alpha is one value that every traffic class takes: on the
// two-class isolation scenario, ABM at --alphas=2 is ABM's default (alpha 2
// on both classes), and alpha 1 is a different run.
TEST(SweepExpand, OneAlphaSetsEveryTrafficClass) {
  SweepSpec spec;
  spec.scenarios = {"isolation"};
  spec.bms = {"abm"};
  spec.scale = BenchScale::kSmoke;
  spec.duration_ms = 20;
  spec.alphas = {2.0, 1.0};
  std::vector<SweepPoint> points;
  ASSERT_FALSE(ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 2u);
  PointSpec defaults = points[0].spec;
  defaults.alphas.clear();
  const std::string fingerprint =
      testing::DeterministicFingerprint(testing::RunPointOrFail(defaults));
  EXPECT_EQ(testing::DeterministicFingerprint(testing::RunPointOrFail(points[0].spec)),
            fingerprint);
  EXPECT_NE(testing::DeterministicFingerprint(testing::RunPointOrFail(points[1].spec)),
            fingerprint);
}

}  // namespace
}  // namespace occamy::exp
