// Figure 11 (§6.1): queue-length evolution, Occamy vs DT, alpha in {1, 4}.
//
// A long-lived overload fills queue 1 to its DT steady state; a burst then
// arrives for queue 2. Occamy actively expels queue 1's over-allocation so
// the burst reaches its fair share without drops; DT with alpha=4 cannot
// release the buffer in time and the burst drops packets first.
#include <cstdio>

#include "bench/common/table.h"
#include "src/exp/burst_lab.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

namespace {

void RunCase(Scheme scheme, double alpha) {
  BurstLabSpec spec;
  spec.scheme = scheme;
  spec.alpha = alpha;
  spec.burst_bytes = 600 * 1000;
  spec.burst_start = Microseconds(400);
  spec.horizon = Microseconds(1000);
  spec.sample_every = Microseconds(20);
  const BurstLabResult r = RunBurstLab(spec);

  PrintHeader(Table::Fmt("Fig 11: %s, alpha=%g  (KB vs time)", SchemeName(scheme), alpha));
  Table table({"t(us)", "q1_long(KB)", "q2_burst(KB)", "T(KB)"});
  const auto& q1 = r.q_long.samples();
  const auto& q2 = r.q_burst.samples();
  const auto& th = r.threshold.samples();
  for (size_t i = 0; i < q1.size(); i += 2) {
    table.AddRow({Table::Fmt("%.0f", ToMicroseconds(q1[i].t)),
                  Table::Fmt("%.0f", q1[i].value), Table::Fmt("%.0f", q2[i].value),
                  Table::Fmt("%.0f", th[i].value)});
  }
  table.Print();
  std::printf("burst: %lld pkts sent, %lld dropped (loss %.1f%%), %lld expelled from q1\n",
              static_cast<long long>(r.burst_packets), static_cast<long long>(r.burst_drops),
              100.0 * r.BurstLossRate(), static_cast<long long>(r.telemetry.expelled));
}

}  // namespace

int main() {
  std::printf("Paper expectation: Occamy quickly reallocates buffer on burst arrival for\n"
              "both alphas; DT only adjusts in time with a large free reserve (alpha=1),\n"
              "and with alpha=4 the burst drops before reaching its fair share.\n");
  RunCase(Scheme::kOccamy, 1.0);
  RunCase(Scheme::kOccamy, 4.0);
  RunCase(Scheme::kDt, 1.0);
  RunCase(Scheme::kDt, 4.0);
  return 0;
}
