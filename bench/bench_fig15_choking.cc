// Figure 15 (§6.2): buffer choking mitigation — strict-priority queues,
// high-priority queries (alpha=8 for every scheme) vs low-priority
// background (alpha=1) that holds buffer while draining slowly.
//
// Paper expectation: background traffic extends DT's avg QCT by up to ~6.6x
// and p99 by up to ~60x; ABM helps but cannot fix it (~5.7x); Occamy matches
// Pushout — the background barely affects the queries.
#include <cstdio>

#include "bench/common/table.h"
#include "src/exp/dpdk_run.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

int main() {
  const Scheme schemes[] = {Scheme::kOccamy, Scheme::kDt, Scheme::kAbm, Scheme::kPushout};
  const int64_t buffer = 410 * 1000;

  Table avg({"Query(%B)", "Scheme", "w/o bg (ms)", "w/ bg (ms)", "degradation"});
  Table p99 = avg;
  for (int pct = 150; pct <= 250; pct += 50) {
    for (Scheme scheme : schemes) {
      DpdkRunSpec base;
      base.scheme = scheme;
      base.queues_per_port = 8;
      base.scheduler = tm::SchedulerKind::kStrictPriority;
      // HP alpha=8 for every scheme, LP alpha=1 (paper §6.2).
      base.alphas = {8.0, 1, 1, 1, 1, 1, 1, 1};
      base.query_tc = 0;
      base.query_bytes = buffer * pct / 100;

      DpdkRunSpec without = base;
      without.bg = DpdkRunSpec::Bg::kNone;
      const DpdkRunResult wo = RunDpdk(without);

      DpdkRunSpec with = base;
      with.bg = DpdkRunSpec::Bg::kSaturatingLp;
      with.bg_load = 1.0;
      const DpdkRunResult w = RunDpdk(with);

      avg.AddRow({Table::Fmt("%d", pct), SchemeName(scheme),
                  Table::Fmt("%.2f", wo.qct_avg_ms), Table::Fmt("%.2f", w.qct_avg_ms),
                  Table::Fmt("%.1fx", w.qct_avg_ms / wo.qct_avg_ms)});
      p99.AddRow({Table::Fmt("%d", pct), SchemeName(scheme),
                  Table::Fmt("%.2f", wo.qct_p99_ms), Table::Fmt("%.2f", w.qct_p99_ms),
                  Table::Fmt("%.1fx", w.qct_p99_ms / wo.qct_p99_ms)});
    }
  }
  PrintHeader("Fig 15(a): avg QCT with and without LP background");
  avg.Print();
  PrintHeader("Fig 15(b): p99 QCT with and without LP background");
  p99.Print();
  return 0;
}
