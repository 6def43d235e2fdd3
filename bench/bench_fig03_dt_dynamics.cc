// Figure 3 (§2.2): healthy vs anomalous dynamic behaviour of DT.
//
// Healthy: the arriving queue grows slowly enough that the congested queue
// can drain down to the falling threshold — both converge to the fair share.
// Anomalous: the arrival rate is so high (or the drain rate so low) that the
// congested queue stays above T(t), and the newcomer drops packets before
// receiving its deserved buffer.
#include <cstdio>

#include "bench/common/table.h"
#include "src/exp/burst_lab.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

namespace {

void RunCase(const char* label, Bandwidth burst_rate) {
  StarSpec star;
  star.num_hosts = 4;
  star.host_rates = {Bandwidth::Gbps(100), Bandwidth::Gbps(100), Bandwidth::Gbps(10),
                     Bandwidth::Gbps(10)};
  star.buffer_bytes = 2 * 1000 * 1000;
  star.ecn_threshold_bytes = 0;
  star.scheme = Scheme::kDt;
  star.alphas = {1.0};
  StarScenario s(star);

  int64_t burst_drops = 0;
  s.sw().set_drop_hook([&](const Packet& pkt, tm::DropReason) {
    if (pkt.flow_id == net::Network::kOpenLoopFlowIdBase + 2) ++burst_drops;
  });

  workload::OpenLoopConfig lived;
  lived.src = s.topo.hosts[0];
  lived.dst = s.topo.hosts[2];
  lived.rate = Bandwidth::Gbps(12);  // modest overload of the 10G port
  lived.flow_id = net::Network::kOpenLoopFlowIdBase + 1;
  lived.stop = Milliseconds(3);
  workload::OpenLoopSender long_lived(&s.net, lived);
  long_lived.Start();

  workload::OpenLoopConfig burst;
  burst.src = s.topo.hosts[1];
  burst.dst = s.topo.hosts[3];
  burst.rate = burst_rate;
  burst.flow_id = net::Network::kOpenLoopFlowIdBase + 2;
  burst.start = Milliseconds(1);
  burst.stop = Milliseconds(3);
  workload::OpenLoopSender burst_sender(&s.net, burst);
  burst_sender.Start();

  PrintHeader(Table::Fmt("Fig 3 (%s): DT dynamics, burst at %.0f Gbps", label,
                         burst_rate.gbps()));
  Table table({"t(us)", "q1(KB)", "q2(KB)", "T(KB)"});
  for (Time t = Milliseconds(1) - Microseconds(100); t <= Milliseconds(3);
       t += Microseconds(100)) {
    s.ssim.RunUntil(t);
    auto& part = s.sw().partition(0);
    table.AddRow({Table::Fmt("%.0f", ToMicroseconds(t)),
                  Table::Fmt("%.0f", s.sw().QueueLengthBytes(2, 0) / 1000.0),
                  Table::Fmt("%.0f", s.sw().QueueLengthBytes(3, 0) / 1000.0),
                  Table::Fmt("%.0f", part.ThresholdBytes(part.QueueIndex(2, 0)) / 1000.0)});
  }
  table.Print();
  std::printf("burst drops while q1 > T (drop-before-fair): %lld of %lld sent\n",
              static_cast<long long>(burst_drops),
              static_cast<long long>(burst_sender.packets_sent()));
}

}  // namespace

int main() {
  std::printf("Paper expectation (Fig 3): with a gentle burst, q1 tracks the falling\n"
              "threshold and both queues converge (healthy). With an intense burst, q1\n"
              "cannot drain as fast as T(t) falls, so q2 drops before its fair share\n"
              "(anomalous: over-allocation + drop-before-fair).\n");
  RunCase("healthy", Bandwidth::Gbps(11));
  RunCase("anomalous", Bandwidth::Gbps(90));
  return 0;
}
