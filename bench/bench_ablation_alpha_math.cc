// Ablation (§4.4): the analytics behind Occamy's parameter recommendation.
//
//  Eq. (2): steady-state reserved free buffer F = B / (1 + alpha*N) — we
//  measure it by driving the real admission code to its fixpoint and compare
//  with the closed form (efficiency gain saturates beyond alpha ~ 8).
//
//  Ineq. (4): 1/alpha >= (R/V - 1 - ...) — fairness requires enough
//  expulsion rate V relative to the burst arrival rate R. We sweep R/V in
//  the burst lab and report the burst's attained share of the buffer.
#include <cstdio>
#include <memory>

#include "bench/common/table.h"
#include "src/bm/dynamic_threshold.h"
#include "src/exp/burst_lab.h"
#include "src/tm/traffic_manager.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

namespace {

// Fixpoint of the DT fill process with N greedy queues (cell-granular).
int64_t MeasuredFreeBuffer(double alpha, int n_queues, int64_t buffer) {
  sim::Simulator sim;
  tm::TmConfig cfg;
  cfg.buffer_bytes = buffer;
  cfg.queues_per_port = 1;
  cfg.port_rates.assign(static_cast<size_t>(n_queues), Bandwidth::Gbps(10));
  cfg.class_configs = {{.alpha = alpha, .priority = 0}};
  tm::TmPartition part(&sim, cfg, std::make_unique<bm::DynamicThreshold>());
  bool progress = true;
  while (progress) {
    progress = false;
    for (int q = 0; q < n_queues; ++q) {
      Packet p;
      p.size_bytes = 1000;
      if (part.Enqueue(q, p).accepted) progress = true;
    }
  }
  return part.buffer_bytes() - part.occupancy_bytes();
}

}  // namespace

int main() {
  PrintHeader("Eq. (2): reserved free buffer F = B/(1+alpha*N), B = 1MB");
  Table eq2({"alpha", "N", "F analytic (KB)", "F measured (KB)", "buffer efficiency"});
  const int64_t buffer = 1000 * 1000;
  for (double alpha : {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}) {
    for (int n : {1, 4}) {
      const double analytic = static_cast<double>(buffer) / (1.0 + alpha * n);
      const int64_t measured = MeasuredFreeBuffer(alpha, n, buffer);
      eq2.AddRow({Table::Fmt("%g", alpha), Table::Fmt("%d", n),
                  Table::Fmt("%.1f", analytic / 1000.0),
                  Table::Fmt("%.1f", static_cast<double>(measured) / 1000.0),
                  Table::Fmt("%.1f%%", 100.0 * (1.0 - measured / static_cast<double>(buffer)))});
    }
  }
  eq2.Print();
  std::printf("Note the diminishing efficiency return: alpha=8 -> 88.9%%, alpha=16 -> 94.1%%\n"
              "(only +5.2%% for N=1), which is why the paper stops at alpha=8.\n");

  PrintHeader("Ineq. (4): burst share vs arrival/expulsion-rate ratio (alpha=8)");
  // In the burst lab the expulsion rate V is bounded by the redundant memory
  // bandwidth; we vary the burst arrival rate R by the sender's injection
  // rate and report the burst queue's attained buffer (vs fair share).
  Table ineq({"Burst rate (Gbps)", "burst loss rate", "expelled pkts", "fair?"});
  for (int64_t gbps : {20, 40, 60, 80, 100}) {
    BurstLabSpec spec;
    spec.scheme = Scheme::kOccamy;
    spec.alpha = 8.0;
    spec.sender_rate = Bandwidth::Gbps(100);
    spec.burst_bytes = 700 * 1000;
    BurstLabSpec adjusted = spec;
    adjusted.sender_rate = Bandwidth::Gbps(gbps);
    const BurstLabResult r = RunBurstLab(adjusted);
    ineq.AddRow({Table::Fmt("%lld", static_cast<long long>(gbps)),
                 Table::Fmt("%.3f", r.BurstLossRate()),
                 Table::Fmt("%lld", static_cast<long long>(r.telemetry.expelled)),
                 r.BurstLossRate() < 0.01 ? "yes" : "no"});
  }
  ineq.Print();
  std::printf("Higher arrival rates need more expulsion headroom (Ineq. 4); with the\n"
              "switch's redundant bandwidth the tradeoff stays comfortable up to ~line rate.\n");
  return 0;
}
