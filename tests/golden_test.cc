// Golden-metrics regression suite.
//
// Every (scenario x BM scheme) case below runs at a pinned (scale, seed,
// duration) configuration and its deterministic metric fingerprint (see
// tests/differential.h — all metrics except the wall-clock fields, doubles
// rendered round-trip exact) is diffed against a checked-in file under
// tests/golden/. Perf refactors can therefore no longer silently change
// simulation results: any intentional behavior change must regenerate the
// fingerprints and show up in review as a golden-file diff.
//
// Regenerating after an intentional change:
//   ./build/golden_test --update-golden
// (or OCCAMY_UPDATE_GOLDEN=1 ./build/golden_test). The directory defaults
// to the source tree's tests/golden (baked in at compile time); override
// with OCCAMY_GOLDEN_DIR.
//
// The golden cases pin each platform at its default of one shard, and the
// fabric also at two shards (whose rows must match the one-shard files:
// the mailbox path is locked against the same fingerprints). Every case
// runs the engine's one window planner, adaptive batching. Unlike
// differential_test, the fingerprints are seed-pinned: OCCAMY_TEST_SEED
// does not shift them (reruns in the CI seed matrix double as a flakiness
// probe instead).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "tests/differential.h"

#ifndef OCCAMY_GOLDEN_DIR
#define OCCAMY_GOLDEN_DIR "tests/golden"
#endif

namespace occamy {

// Set from main (anonymous namespaces are invisible there).
bool g_update_golden = false;

namespace {

std::string GoldenDir() {
  const char* env = std::getenv("OCCAMY_GOLDEN_DIR");
  return (env != nullptr && *env != '\0') ? env : OCCAMY_GOLDEN_DIR;
}

struct GoldenCase {
  const char* scenario;
  const char* bm;
  double duration_ms;
  int shards;
  // Fault schedule (src/fault grammar); nullptr = healthy run. Appended
  // last so the healthy cases keep their positional initializers.
  const char* faults = nullptr;
  // Filename tag for the faulted suffix; defaults to "faults". Lets several
  // faulted cases of the same (scenario, bm, shards) coexist.
  const char* tag = nullptr;
};

// One file per case: <scenario>.<bm>[.shardsN][.<tag|faults>].golden, with
// the shard count named only above one.
std::string GoldenPath(const GoldenCase& c) {
  std::string name = std::string(c.scenario) + "." + c.bm;
  if (c.shards > 1) name += ".shards" + std::to_string(c.shards);
  if (c.faults != nullptr) name += std::string(".") + (c.tag ? c.tag : "faults");
  return GoldenDir() + "/" + name + ".golden";
}

void CheckGolden(const GoldenCase& c) {
  SCOPED_TRACE(GoldenPath(c));
  exp::PointSpec spec;
  spec.scenario = c.scenario;
  spec.bm = c.bm;
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = c.duration_ms;
  spec.seed = 1;  // pinned: goldens are fixed-point, not seed-shifted
  spec.shards = c.shards;
  if (c.faults != nullptr) spec.faults = c.faults;
  const exp::Metrics metrics = testing::RunPointOrFail(spec);
  ASSERT_GT(metrics.Number("sim_events"), 0);
  const std::string fresh = testing::DeterministicFingerprint(metrics);

  const std::string path = GoldenPath(c);
  if (g_update_golden) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << fresh;
    std::printf("golden_test: updated %s\n", path.c_str());
    return;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run `golden_test --update-golden` to create it";
  std::ostringstream stored;
  stored << in.rdbuf();
  EXPECT_EQ(stored.str(), fresh)
      << "metrics diverged from " << path
      << "\nIf the change is intentional, regenerate with "
         "`golden_test --update-golden` and commit the diff.";
}

// The grid: every platform and engine family, both Occamy and a baseline
// scheme, kept small enough to run in seconds at smoke scale.
constexpr GoldenCase kCases[] = {
    // P4 burst lab (§6.1).
    {"burst", "dt", 1.0, 1},
    {"burst", "occamy", 1.0, 1},
    // DPDK star testbed (§6.2/6.3).
    {"incast", "occamy", 2.0, 1},
    {"burst_absorption", "dt", 2.0, 1},
    {"burst_absorption", "occamy", 2.0, 1},
    {"choking", "occamy", 2.0, 1},
    // Leaf-spine fabric (§6.4), one and two shards.
    {"websearch", "occamy", 2.0, 1},
    {"websearch", "occamy", 2.0, 2},
    {"alltoall", "dt", 2.0, 1},
    // Canonical fault schedules. The flap severs the burst receiver's link
    // mid-burst; the loss case exercises the per-delivery Bernoulli draw on
    // the fabric.
    {"burst", "occamy", 1.0, 1, "link_down:t=500us,dur=300us,node=sw0,port=2"},
    {"websearch", "occamy", 2.0, 1, "loss:rate=0.01,seed=7"},
    {"websearch", "occamy", 2.0, 2, "loss:rate=0.01,seed=7"},
    {"burst_absorption", "occamy", 2.0, 1, "loss:rate=0.005,seed=11;corrupt:rate=0.002,seed=13"},
    // Self-healing fault model: route-epoch rerouting, switch restart,
    // control-plane freeze and Gilbert-Elliott burst loss.
    {"websearch", "occamy", 2.0, 1,
     "link_down:t=500us,dur=500us,node=sw0,port=4,reroute=1", "reroute"},
    {"websearch", "occamy", 2.0, 2,
     "link_down:t=500us,dur=500us,node=sw0,port=4,reroute=1", "reroute"},
    {"burst", "occamy", 1.0, 1, "restart:t=500us,node=sw0", "restart"},
    {"burst_absorption", "occamy", 2.0, 1, "cp_freeze:t=500us,dur=1ms,node=sw0",
     "cpfreeze"},
    {"websearch", "occamy", 2.0, 1,
     "gilbert:p_gb=0.05,p_bg=0.3,loss_bad=0.3,slot=50us,seed=5", "gilbert"},
    {"websearch", "occamy", 2.0, 2,
     "gilbert:p_gb=0.05,p_bg=0.3,loss_bad=0.3,slot=50us,seed=5", "gilbert"},
};

TEST(GoldenTest, MetricsMatchCheckedInFingerprints) {
  for (const GoldenCase& c : kCases) CheckGolden(c);
}

}  // namespace
}  // namespace occamy

// Custom main: gtest_main cannot eat --update-golden.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      occamy::g_update_golden = true;
    }
  }
  const char* env = std::getenv("OCCAMY_UPDATE_GOLDEN");
  if (env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0) {
    occamy::g_update_golden = true;
  }
  return RUN_ALL_TESTS();
}
