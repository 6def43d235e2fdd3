// Differential-oracle test harness for the partition-parallel engine.
//
// The engine's determinism contract (src/sim/sharded_simulator.h) says a
// scenario's JSON metrics are byte-identical for ANY shard count, with
// shards=1 — the default, which stages no mail — as the oracle. This
// header turns that contract into a reusable assertion: run any
// exp::PointSpec at shards=1 and shards=N and diff the *deterministic
// fingerprint* of the metrics — every metric except the wall-clock and
// engine-setting fields, rendered with round-trip-exact doubles. Exact equality
// is intentional: "close" would mean the conservative synchronization
// leaked.
//
// The same fingerprint doubles as the golden-file format of
// tests/golden_test.cc, so "deterministic metric" is defined in exactly one
// place for both suites.
#pragma once

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <sstream>
#include <string>

#include "src/exp/scenario_runner.h"
#include "src/exp/telemetry.h"

namespace occamy::testing {

// Canonical textual form of every deterministic metric, one "key=value" per
// line in insertion order. Keys that legitimately vary run to run or engine
// setting to engine setting (exp::TelemetryKeyVolatility) are left out.
// Doubles print with %.17g (round-trip exact), so two fingerprints are
// equal iff the metrics are bit-identical.
inline std::string DeterministicFingerprint(const exp::Metrics& metrics) {
  std::ostringstream out;
  char buf[64];
  for (const auto& entry : metrics.entries()) {
    if (exp::TelemetryKeyVolatility(entry.key) != exp::KeyVolatility::kDeterministic) {
      continue;
    }
    out << entry.key << '=';
    switch (entry.value.kind) {
      case exp::Metrics::Kind::kInt:
        std::snprintf(buf, sizeof(buf), "%" PRId64, entry.value.i);
        out << buf;
        break;
      case exp::Metrics::Kind::kDouble:
        std::snprintf(buf, sizeof(buf), "%.17g", entry.value.d);
        out << buf;
        break;
      case exp::Metrics::Kind::kString:
        out << entry.value.s;
        break;
    }
    out << '\n';
  }
  return out.str();
}

// Base seed shifted by OCCAMY_TEST_SEED (the CI seed-matrix knob): the
// differential contract must hold for every seed, so the smoke step reruns
// these suites under several.
inline uint64_t ShiftedSeed(uint64_t base) {
  const char* env = std::getenv("OCCAMY_TEST_SEED");
  if (env == nullptr || *env == '\0') return base;
  return base + static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

inline exp::Metrics RunPointOrFail(const exp::PointSpec& spec) {
  const exp::PointResult result = exp::RunPoint(spec);
  EXPECT_TRUE(result.ok) << spec.scenario << "/" << spec.bm << ": " << result.error;
  return result.metrics;
}

// The differential assertion: `spec` run at shards=1 must produce a
// byte-identical deterministic fingerprint at every count in
// `shard_counts`. `spec.shards` is overwritten; every other knob (scenario,
// bm, seed, scale, duration, ...) is compared as-is. Each of `nonzero`
// names a counter the oracle must have fired.
inline void ExpectShardCountInvariant(exp::PointSpec spec,
                                      std::initializer_list<int> shard_counts,
                                      std::initializer_list<const char*> nonzero = {}) {
  spec.shards = 1;
  const exp::Metrics oracle_metrics = RunPointOrFail(spec);
  const std::string oracle = DeterministicFingerprint(oracle_metrics);
  ASSERT_FALSE(oracle.empty());
  // An all-zero run would make the invariant vacuous; insist the oracle
  // actually simulated something.
  EXPECT_GT(oracle_metrics.Number("sim_events"), 0)
      << spec.scenario << "/" << spec.bm;
  for (const char* key : nonzero) {
    EXPECT_GT(oracle_metrics.Number(key), 0)
        << spec.scenario << "/" << spec.bm << ": " << key << " never fired (seed "
        << spec.seed << ")";
  }
  for (const int shards : shard_counts) {
    spec.shards = shards;
    const std::string sharded = DeterministicFingerprint(RunPointOrFail(spec));
    EXPECT_EQ(oracle, sharded)
        << spec.scenario << "/" << spec.bm << ": shards=" << shards
        << " diverged from the single-shard oracle (seed " << spec.seed << ")";
  }
}

}  // namespace occamy::testing
