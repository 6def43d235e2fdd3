// Example: why preemption matters for burst absorption (the Fig. 11 story).
//
// A long-lived flow overloads one output port and settles at its DT steady
// state. A traffic burst then arrives for another port. Watch the queue
// lengths: Occamy actively expels the long-lived queue's over-allocation so
// the burst gets buffer immediately; DT can only wait for it to drain at
// line rate and the burst drops packets.
//
//   $ ./build/examples/burst_absorption
#include <cstdio>
#include <memory>
#include <string>

#include "src/exp/burst_lab.h"

using namespace occamy;
using namespace occamy::exp;

namespace {

void Run(Scheme scheme) {
  BurstLabSpec spec;
  spec.scheme = scheme;
  spec.alpha = 4.0;
  spec.buffer_bytes = 2 * 1000 * 1000;
  spec.burst_bytes = 600 * 1000;
  spec.burst_start = Microseconds(400);
  spec.horizon = Microseconds(900);
  spec.sample_every = Microseconds(50);
  const BurstLabResult r = RunBurstLab(spec);

  std::printf("\n--- %s (alpha=4) ---\n", SchemeName(scheme));
  std::printf("%8s %12s %12s %10s\n", "t(us)", "q_long(KB)", "q_burst(KB)", "T(KB)");
  const auto& q1 = r.q_long.samples();
  const auto& q2 = r.q_burst.samples();
  const auto& th = r.threshold.samples();
  for (size_t i = 0; i < q1.size(); ++i) {
    // A poor man's plot: one bar char per 100KB of the long-lived queue.
    std::string bar(static_cast<size_t>(q1[i].value / 100.0), '#');
    std::printf("%8.0f %12.0f %12.0f %10.0f  %s\n", ToMicroseconds(q1[i].t), q1[i].value,
                q2[i].value, th[i].value, bar.c_str());
  }
  std::printf("burst: %lld sent, %lld dropped (%.1f%%), %lld pkts expelled from q_long\n",
              static_cast<long long>(r.burst_packets),
              static_cast<long long>(r.burst_drops), 100.0 * r.BurstLossRate(),
              static_cast<long long>(r.telemetry.expelled));
}

}  // namespace

int main() {
  Run(Scheme::kDt);
  Run(Scheme::kOccamy);
  std::printf(
      "\nTakeaway: with the same alpha, Occamy's expulsion engine reclaims the\n"
      "over-allocated buffer within microseconds, absorbing the burst losslessly.\n");
  return 0;
}
