// Figure 17 (§6.4): large-scale leaf-spine simulation — QCT / FCT slowdowns
// vs query size (% of one buffer partition), web-search background at 90%.
//
// Paper expectation: Occamy cuts DT's avg QCT slowdown by up to ~44% (ABM
// ~36%), p99 by ~46%; background flows also benefit (~20% avg, small-flow
// p99 ~32%). Pushout is the idealized lower envelope.
#include <cstdio>

#include "bench/common/table.h"
#include "src/exp/fabric_run.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

int main() {
  const Scheme schemes[] = {Scheme::kOccamy, Scheme::kAbm, Scheme::kDt, Scheme::kPushout};

  Table qct_avg({"Query(%B)", "Occamy", "ABM", "DT", "Pushout"});
  Table qct_p99 = qct_avg;
  Table fct_avg = qct_avg;
  Table fct_small = qct_avg;

  for (int pct = 20; pct <= 100; pct += 20) {
    std::vector<std::string> r1 = {Table::Fmt("%d", pct)};
    std::vector<std::string> r2 = r1, r3 = r1, r4 = r1;
    for (Scheme scheme : schemes) {
      FabricRunSpec spec;
      spec.scheme = scheme;
      spec.pattern = BgPattern::kWebSearch;
      spec.bg_load = 0.9;
      spec.query_size_frac_of_buffer = pct / 100.0;
      const FabricRunResult r = RunFabric(spec);
      r1.push_back(Table::Fmt("%.1f", r.qct_avg_slow));
      r2.push_back(Table::Fmt("%.1f", r.qct_p99_slow));
      r3.push_back(Table::Fmt("%.1f", r.fct_avg_slow));
      r4.push_back(Table::Fmt("%.1f", r.fct_small_p99_slow));
    }
    qct_avg.AddRow(r1);
    qct_p99.AddRow(r2);
    fct_avg.AddRow(r3);
    fct_small.AddRow(r4);
  }

  PrintHeader("Fig 17(a): query avg QCT slowdown");
  qct_avg.Print();
  PrintHeader("Fig 17(b): query p99 QCT slowdown");
  qct_p99.Print();
  PrintHeader("Fig 17(c): overall background avg FCT slowdown");
  fct_avg.Print();
  PrintHeader("Fig 17(d): small background flows p99 FCT slowdown");
  fct_small.Print();
  return 0;
}
