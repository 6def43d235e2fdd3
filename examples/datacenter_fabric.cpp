// Example: a full datacenter experiment on the leaf-spine fabric —
// web-search background + incast queries, comparing all four BM schemes.
// This is a miniature of the paper's §6.4 evaluation (bench_fig17 runs the
// full sweep).
//
//   $ ./build/datacenter_fabric            # default scale
//   $ OCCAMY_BENCH_SCALE=smoke ./build/datacenter_fabric
#include <cstdio>

#include "src/exp/fabric_run.h"

using namespace occamy;
using namespace occamy::exp;

int main() {
  std::printf("Leaf-spine fabric, web-search background @ 90%% load, incast queries\n");
  std::printf("(query size = 40%% of one buffer partition)\n\n");
  std::printf("%-12s %10s %10s %12s %12s %9s %9s\n", "Scheme", "QCT avg", "QCT p99",
              "bgFCT avg", "small p99", "drops", "expelled");
  for (Scheme scheme : {Scheme::kDt, Scheme::kAbm, Scheme::kOccamy, Scheme::kPushout}) {
    FabricRunSpec spec;
    spec.scheme = scheme;
    spec.pattern = BgPattern::kWebSearch;
    spec.bg_load = 0.9;
    spec.query_size_frac_of_buffer = 0.4;
    const FabricRunResult r = RunFabric(spec);
    std::printf("%-12s %9.1fx %9.1fx %11.1fx %11.1fx %9lld %9lld\n", SchemeName(scheme),
                r.qct_avg_slow, r.qct_p99_slow, r.fct_avg_slow, r.fct_small_p99_slow,
                static_cast<long long>(r.telemetry.drops),
                static_cast<long long>(r.telemetry.expelled));
  }
  std::printf("\n(values are slowdowns: completion time / unloaded-network ideal)\n");
  return 0;
}
