// Figure 16 (§6.3): impact of the alpha parameter — p99 QCT of DT and
// Occamy for alpha in {0.5, 1, 2, 4, 8}, DRR-scheduled query/background
// queues as in Fig. 14.
//
// Paper expectation: DT is best at alpha in {1, 2} and degrades both below
// (inefficiency) and above (anomalous behaviour). Occamy monotonically
// improves with alpha, saturating around alpha=4..8 — hence the alpha=8
// recommendation.
#include <cstdio>

#include "bench/common/table.h"
#include "src/exp/dpdk_run.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

namespace {

void Sweep(Scheme scheme, const char* title) {
  PrintHeader(title);
  Table table({"Query(%B)", "a=0.5", "a=1", "a=2", "a=4", "a=8"});
  const int64_t buffer = 410 * 1000;
  for (int pct = 100; pct <= 180; pct += 40) {
    std::vector<std::string> row = {Table::Fmt("%d", pct)};
    for (double alpha : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      DpdkRunSpec spec;
      spec.scheme = scheme;
      spec.queues_per_port = 2;
      spec.scheduler = tm::SchedulerKind::kDrr;
      spec.alphas = {alpha, alpha};
      spec.bg = DpdkRunSpec::Bg::kWebSearchCubic;
      spec.bg_load = 0.5;
      spec.bg_tc = 1;
      spec.query_bytes = buffer * pct / 100;
      const DpdkRunResult r = RunDpdk(spec);
      row.push_back(Table::Fmt("%.1f", r.qct_p99_ms));
    }
    table.AddRow(row);
  }
  table.Print();
}

}  // namespace

int main() {
  Sweep(Scheme::kDt, "Fig 16(a): DT p99 QCT (ms) vs alpha");
  Sweep(Scheme::kOccamy, "Fig 16(b): Occamy p99 QCT (ms) vs alpha");
  return 0;
}
