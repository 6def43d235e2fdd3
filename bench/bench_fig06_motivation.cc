// Figure 6 (§3.1): QCT degradation of DT due to anomalous behaviour, on the
// CE6865-testbed substitute (8 hosts, 40G, 2MB shared buffer, DCTCP with a
// 300KB ECN threshold).
//
//  (a) Buffer choking: low-priority traffic to the same port holds buffer
//      that drains slowly under strict priority; DT's high-priority incast
//      degrades by up to ~8x despite deserving the same 1MB either way.
//  (b) Inter-port influence: background congestion on a *different* port
//      still shrinks the shared free buffer, so the threshold cannot rise
//      fast enough for the incast (up to ~2x degradation).
#include <cstdio>
#include <memory>

#include "bench/common/table.h"
#include "src/exp/scenarios.h"
#include "src/workload/incast.h"
#include "src/workload/open_loop.h"

using namespace occamy;
using namespace occamy::bench;
using namespace occamy::exp;

namespace {

constexpr int64_t kBuffer = 2 * 1000 * 1000;

StarSpec TestbedSpec(int queues_per_port, std::vector<double> alphas) {
  StarSpec spec;
  spec.num_hosts = 8;
  spec.host_rate = Bandwidth::Gbps(40);
  spec.buffer_bytes = kBuffer;
  spec.ecn_threshold_bytes = 300 * 1000;  // paper: 300KB on the CE6865
  spec.queues_per_port = queues_per_port;
  spec.scheduler = queues_per_port > 1 ? tm::SchedulerKind::kStrictPriority
                                       : tm::SchedulerKind::kFifo;
  spec.scheme = Scheme::kDt;
  spec.alphas = std::move(alphas);
  return spec;
}

double RunQuery(StarScenario& s, int64_t query_bytes, uint8_t tc, int num_queries,
                Time start) {
  workload::IncastConfig q;
  q.clients = {s.topo.hosts[0]};
  // Incast degree 40: 8 responders on each of 5 server hosts (§3.1).
  for (int rep = 0; rep < 8; ++rep) {
    for (int h = 1; h <= 5; ++h) q.servers.push_back(s.topo.hosts[static_cast<size_t>(h)]);
  }
  q.fanin = 40;
  q.query_size_bytes = query_bytes;
  q.traffic_class = tc;
  q.max_queries = num_queries;
  q.queries_per_second = 120;
  q.start = start;
  q.stop = start + Milliseconds(60);
  workload::IncastWorkload incast(s.manager.get(), q);
  incast.Start();
  s.sim.RunUntil(start + Milliseconds(400));
  return incast.qct().DurationsMs().Mean();
}

void ChokingCase() {
  PrintHeader("Fig 6(a): buffer choking — avg QCT (ms) vs query size");
  Table table({"Query(MB)", "w/o LP traffic", "w/ LP traffic", "degradation"});
  for (int64_t mb = 2; mb <= 14; mb += 2) {
    // Without LP: HP alpha=1 (deserves 1MB). With LP: HP alpha=8, LP alpha=1
    // (HP still deserves 1MB) — the paper's controlled comparison.
    double without_lp, with_lp;
    {
      StarScenario s(TestbedSpec(8, {1.0, 1, 1, 1, 1, 1, 1, 1}));
      without_lp = RunQuery(s, mb * 1000 * 1000, 0, 5, Milliseconds(1));
    }
    {
      StarScenario s(TestbedSpec(8, {8.0, 1, 1, 1, 1, 1, 1, 1}));
      // 14 long-lived LP streams from 2 senders into 7 LP queues of the
      // client's port, saturating it (§3.1).
      std::vector<std::unique_ptr<workload::OpenLoopSender>> lp;
      for (int i = 0; i < 14; ++i) {
        workload::OpenLoopConfig cfg;
        cfg.src = s.topo.hosts[static_cast<size_t>(6 + (i % 2))];
        cfg.dst = s.topo.hosts[0];
        cfg.rate = Bandwidth::Mbps(3300);  // 14 x 3.3G = 46G > 40G port
        cfg.traffic_class = static_cast<uint8_t>(1 + (i % 7));
        cfg.flow_id = net::Network::kOpenLoopFlowIdBase + static_cast<uint64_t>(i);
        cfg.stop = Milliseconds(500);
        lp.push_back(std::make_unique<workload::OpenLoopSender>(&s.net, cfg));
        lp.back()->Start();
      }
      with_lp = RunQuery(s, mb * 1000 * 1000, 0, 5, Milliseconds(2));
    }
    table.AddRow({Table::Fmt("%lld", static_cast<long long>(mb)),
                  Table::Fmt("%.2f", without_lp), Table::Fmt("%.2f", with_lp),
                  Table::Fmt("%.1fx", with_lp / without_lp)});
  }
  table.Print();
  std::printf("Paper: presence of LP traffic degrades avg QCT by up to ~8x.\n");
}

void InterPortCase() {
  PrintHeader("Fig 6(b): inter-port influence — avg QCT (ms) vs query size");
  Table table({"Query(MB)", "w/o background", "w/ background", "degradation"});
  for (int64_t mb = 2; mb <= 14; mb += 2) {
    double without_bg, with_bg;
    {
      StarScenario s(TestbedSpec(1, {1.0}));
      without_bg = RunQuery(s, mb * 1000 * 1000, 0, 5, Milliseconds(1));
    }
    {
      StarScenario s(TestbedSpec(1, {1.0}));
      // Background long flows congest a DIFFERENT port (host 7).
      std::vector<std::unique_ptr<workload::OpenLoopSender>> bg;
      for (int i = 0; i < 2; ++i) {
        workload::OpenLoopConfig cfg;
        cfg.src = s.topo.hosts[static_cast<size_t>(5 + i)];
        cfg.dst = s.topo.hosts[7];
        cfg.rate = Bandwidth::Gbps(23);  // 46G total > 40G port
        cfg.flow_id = net::Network::kOpenLoopFlowIdBase + static_cast<uint64_t>(i);
        cfg.stop = Milliseconds(500);
        bg.push_back(std::make_unique<workload::OpenLoopSender>(&s.net, cfg));
        bg.back()->Start();
      }
      with_bg = RunQuery(s, mb * 1000 * 1000, 0, 5, Milliseconds(2));
    }
    table.AddRow({Table::Fmt("%lld", static_cast<long long>(mb)),
                  Table::Fmt("%.2f", without_bg), Table::Fmt("%.2f", with_bg),
                  Table::Fmt("%.1fx", with_bg / without_bg)});
  }
  table.Print();
  std::printf("Paper: background traffic on another port degrades avg QCT by up to ~2x.\n");
}

}  // namespace

int main() {
  ChokingCase();
  InterPortCase();
  return 0;
}
