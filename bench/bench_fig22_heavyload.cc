// Figure 22 (§6.4): heavy network load (120% offered background) — does
// Occamy still help when memory bandwidth should be scarce?
//
// Paper expectation: yes — congestion is unbalanced (incast concentrates on
// downlinks while uplinks idle), so redundant memory bandwidth remains and
// Occamy keeps its advantage over DT/ABM for both queries and background.
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
      spec.bg_load = 1.2;  // 120% offered load
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
  PrintHeader("Fig 22(a): query avg QCT slowdown @120% load");
  qct_avg.Print();
  PrintHeader("Fig 22(b): query p99 QCT slowdown @120% load");
  qct_p99.Print();
  PrintHeader("Fig 22(c): background avg FCT slowdown @120% load");
  fct_avg.Print();
  PrintHeader("Fig 22(d): small background p99 FCT slowdown @120% load");
  fct_small.Print();
  return 0;
}
