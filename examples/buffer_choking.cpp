// Example: the buffer choking problem (paper Fig. 5 / §3.1) and how Occamy
// fixes it.
//
// Low-priority traffic fills the shared buffer and then drains slowly
// because strict-priority scheduling gives the bandwidth to high-priority
// traffic. When a high-priority incast arrives, the buffer it deserves is
// held hostage by low-priority queues. A non-preemptive BM (DT) can only
// wait; Occamy expels the over-allocation.
//
//   $ ./build/examples/buffer_choking
#include <cstdio>
#include <memory>
#include <vector>

#include "src/exp/scenarios.h"
#include "src/workload/incast.h"
#include "src/workload/open_loop.h"

using namespace occamy;
using namespace occamy::exp;

namespace {

double RunOnce(Scheme scheme, bool with_low_priority) {
  StarSpec spec;
  spec.num_hosts = 8;
  spec.queues_per_port = 8;  // 1 high-priority + 7 low-priority classes
  spec.scheduler = tm::SchedulerKind::kStrictPriority;
  spec.scheme = scheme;
  spec.alphas = {8.0, 1, 1, 1, 1, 1, 1, 1};
  spec.buffer_bytes = 410 * 1000;
  spec.ecn_threshold_bytes = 65 * 1500;
  StarScenario s(spec);

  std::vector<std::unique_ptr<workload::OpenLoopSender>> low_priority;
  if (with_low_priority) {
    for (int i = 0; i < 7; ++i) {
      workload::OpenLoopConfig cfg;
      cfg.src = s.topo.hosts[static_cast<size_t>(6 + (i % 2))];
      cfg.dst = s.topo.hosts[0];
      cfg.rate = Bandwidth::Mbps(1700);
      cfg.traffic_class = static_cast<uint8_t>(1 + i);
      cfg.flow_id = net::Network::kOpenLoopFlowIdBase + static_cast<uint64_t>(i);
      cfg.stop = Milliseconds(100);
      low_priority.push_back(std::make_unique<workload::OpenLoopSender>(&s.net, cfg));
      low_priority.back()->Start();
    }
  }

  workload::IncastConfig q;
  q.clients = {s.topo.hosts[0]};
  for (int rep = 0; rep < 2; ++rep) {
    for (int h = 1; h <= 5; ++h) q.servers.push_back(s.topo.hosts[static_cast<size_t>(h)]);
  }
  q.fanin = 10;
  q.query_size_bytes = 600 * 1000;
  q.traffic_class = 0;  // high priority
  q.max_queries = 5;
  q.queries_per_second = 150;
  q.start = Milliseconds(10);
  q.stop = Milliseconds(80);
  workload::IncastWorkload incast(s.manager.get(), q);
  incast.Start();

  s.sim.RunUntil(Milliseconds(300));
  return incast.qct().DurationsMs().Mean();
}

}  // namespace

int main() {
  std::printf("High-priority incast QCT, with and without low-priority traffic\n");
  std::printf("(strict priority, HP alpha=8, LP alpha=1, 410KB shared buffer)\n\n");
  std::printf("%-10s %14s %14s %12s\n", "Scheme", "w/o LP (ms)", "w/ LP (ms)", "degradation");
  for (Scheme scheme : {Scheme::kDt, Scheme::kAbm, Scheme::kOccamy, Scheme::kPushout}) {
    const double without_lp = RunOnce(scheme, false);
    const double with_lp = RunOnce(scheme, true);
    std::printf("%-10s %14.3f %14.3f %11.1fx\n", SchemeName(scheme), without_lp, with_lp,
                with_lp / without_lp);
  }
  std::printf(
      "\nTakeaway: low-priority queues hold buffer they cannot drain (the\n"
      "high-priority traffic owns the bandwidth). DT's high-priority queries\n"
      "starve for buffer; Occamy expels the over-allocation and is unaffected,\n"
      "matching the idealized Pushout.\n");
  return 0;
}
