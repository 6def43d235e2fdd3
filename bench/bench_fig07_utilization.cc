// Figure 7 (§3.1): CDFs of buffer utilization and memory-bandwidth
// utilization sampled at packet-drop events, on the leaf-spine fabric with
// web-search background traffic and DT.
//
// Paper expectation: (a) with alpha=0.5 the p99 buffer utilization on drop
// is only ~66% — DT wastes scarce buffer; alpha=1 is higher but still < 100%.
// (b) even under 90% network load the median free memory bandwidth is ~38%,
// i.e. utilization ~62% — redundant bandwidth exists for expulsion.
#include <cstdio>

#include "bench/common/table.h"
#include "src/exp/fabric_run.h"
#include "src/workload/flow_size_dist.h"
#include "src/workload/incast.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

namespace {

struct UtilizationCdfs {
  stats::EmpiricalCdf buffer_util;
  stats::EmpiricalCdf membw_util;
  int64_t drops = 0;
};

UtilizationCdfs Run(double alpha, double load) {
  FabricSpec spec;
  spec.scheme = Scheme::kDt;
  spec.alphas = {alpha};
  FabricScenario s(spec);
  const Time duration = DefaultFabricDuration(GetBenchScale());

  workload::PoissonFlowConfig bg;
  bg.hosts = s.topo.hosts;
  bg.load = load;
  bg.host_rate = s.topo.config.host_rate;
  bg.size_dist = workload::WebSearchDistribution();
  bg.stop = duration * 2;
  bg.seed = 23;
  workload::PoissonFlowGenerator gen(s.manager.get(), bg);
  gen.Start();

  // A light incast stream provides the drop-triggering bursts as in §3.1.
  workload::IncastConfig q;
  q.clients = s.topo.hosts;
  q.servers = s.topo.hosts;
  q.fanin = std::min(16, s.topo.num_hosts() - 1);
  q.query_size_bytes = s.buffer_per_partition / 2;
  q.queries_per_second = 0.01 * s.topo.config.host_rate.bytes_per_sec() *
                         s.topo.num_hosts() / static_cast<double>(q.query_size_bytes);
  q.stop = duration * 2;
  workload::IncastWorkload incast(s.manager.get(), q);
  incast.Start();

  s.sim.RunUntil(duration * 2 + Milliseconds(20));

  UtilizationCdfs out;
  auto collect = [&out](net::SwitchNode& sw) {
    for (int p = 0; p < sw.num_partitions(); ++p) {
      out.buffer_util.MergeFrom(sw.partition(p).stats().buffer_util_on_drop);
      out.membw_util.MergeFrom(sw.partition(p).stats().membw_util_on_drop);
      out.drops += sw.partition(p).stats().TotalDrops();
    }
  };
  for (auto id : s.topo.leaves) collect(static_cast<net::SwitchNode&>(s.net.node(id)));
  for (auto id : s.topo.spines) collect(static_cast<net::SwitchNode&>(s.net.node(id)));
  return out;
}

void PrintCdf(const char* title, const stats::EmpiricalCdf& cdf) {
  std::printf("%s (n=%zu):\n", title, cdf.Count());
  Table table({"CDF", "Utilization(%)"});
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    table.AddRow({Table::Fmt("%.2f", p), Table::Fmt("%.1f", cdf.Quantile(p))});
  }
  table.Print();
}

}  // namespace

int main() {
  PrintHeader("Fig 7(a): buffer utilization on drop, web-search @ 40% load");
  for (double alpha : {0.5, 1.0}) {
    const auto cdfs = Run(alpha, 0.4);
    PrintCdf(Table::Fmt("alpha = %.1f", alpha).c_str(), cdfs.buffer_util);
  }
  std::printf("Paper: p99 buffer utilization on drop is only ~66%% with alpha=0.5.\n");

  PrintHeader("Fig 7(b): memory-bandwidth utilization on drop vs load (alpha=1)");
  for (double load : {0.2, 0.4, 0.9}) {
    const auto cdfs = Run(1.0, load);
    PrintCdf(Table::Fmt("load = %.0f%%", load * 100).c_str(), cdfs.membw_util);
  }
  std::printf("Paper: even at 90%% load the median free memory bandwidth is ~38%%.\n");
  return 0;
}
