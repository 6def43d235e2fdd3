// Figure 14 (§6.2): performance isolation — query traffic in one DRR queue,
// CUBIC web-search background in the other; avg/p99 QCT vs background load.
//
// Paper expectation: as background load grows, DT and ABM suffer RTOs (the
// buffer cannot be re-allocated fast enough even though the queues are
// separate), inflating p99 QCT; Occamy stays close to Pushout.
#include <cstdio>

#include "bench/common/table.h"
#include "src/exp/dpdk_run.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

int main() {
  const Scheme schemes[] = {Scheme::kOccamy, Scheme::kAbm, Scheme::kDt, Scheme::kPushout};

  Table avg({"Load(%)", "Occamy", "ABM", "DT", "Pushout"});
  Table p99 = avg;
  for (int load = 10; load <= 60; load += 10) {
    std::vector<std::string> r1 = {Table::Fmt("%d", load)};
    std::vector<std::string> r2 = r1;
    for (Scheme scheme : schemes) {
      DpdkRunSpec spec;
      spec.scheme = scheme;
      spec.queues_per_port = 2;
      spec.scheduler = tm::SchedulerKind::kDrr;
      spec.bg = DpdkRunSpec::Bg::kWebSearchCubic;
      spec.bg_load = load / 100.0;
      spec.bg_tc = 1;
      spec.query_tc = 0;
      spec.query_bytes = 410 * 1000 * 6 / 10;  // 60% of the buffer
      const DpdkRunResult r = RunDpdk(spec);
      r1.push_back(Table::Fmt("%.2f", r.qct_avg_ms));
      r2.push_back(Table::Fmt("%.2f", r.qct_p99_ms));
    }
    avg.AddRow(r1);
    p99.AddRow(r2);
  }
  PrintHeader("Fig 14(a): avg QCT (ms) vs background load");
  avg.Print();
  PrintHeader("Fig 14(b): p99 QCT (ms) vs background load");
  p99.Print();
  return 0;
}
