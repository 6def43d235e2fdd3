// Figure 19 (§6.4): all-reduce background traffic over the double binary
// tree (Sanders et al., the algorithm behind NCCL tree mode) — query avg QCT
// slowdown and background p99 FCT slowdown vs flow size.
//
// Paper expectation: Occamy improves avg QCT over DT by up to ~48% and
// background p99 FCT by up to ~73%.
#include <cstdio>

#include "bench/common/table.h"
#include "src/exp/fabric_run.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

int main() {
  const Scheme schemes[] = {Scheme::kOccamy, Scheme::kAbm, Scheme::kDt, Scheme::kPushout};
  const int64_t sizes[] = {16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024, 2048 * 1024};

  Table qct({"FlowSize", "Occamy", "ABM", "DT", "Pushout"});
  Table fct = qct;
  for (int64_t size : sizes) {
    std::vector<std::string> r1 = {Table::Fmt("%lldK", static_cast<long long>(size / 1024))};
    std::vector<std::string> r2 = r1;
    for (Scheme scheme : schemes) {
      FabricRunSpec spec;
      spec.scheme = scheme;
      spec.pattern = BgPattern::kAllReduce;
      spec.bg_load = 0.9;
      spec.bg_fixed_size = size;
      spec.query_size_frac_of_buffer = 0.4;
      const FabricRunResult r = RunFabric(spec);
      r1.push_back(Table::Fmt("%.1f", r.qct_avg_slow));
      r2.push_back(Table::Fmt("%.1f", r.fct_p99_slow));
    }
    qct.AddRow(r1);
    fct.AddRow(r2);
  }
  PrintHeader("Fig 19(a): query avg QCT slowdown (all-reduce background)");
  qct.Print();
  PrintHeader("Fig 19(b): background p99 FCT slowdown (all-reduce)");
  fct.Print();
  return 0;
}
