#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "src/bm/dynamic_threshold.h"
#include "src/net/topology.h"
#include "src/transport/flow_manager.h"
#include "src/workload/collective.h"
#include "src/workload/flow_size_dist.h"
#include "src/workload/pregen.h"
#include "tests/one_shard.h"

namespace occamy::workload {
namespace {

TEST(WebSearchDistTest, MeanAndShape) {
  const auto dist = WebSearchDistribution();
  // Heavy-tailed DCTCP web-search distribution: mean ~1.7 MB.
  EXPECT_NEAR(dist.Mean(), 1.7e6, 0.2e6);
  Rng rng(3);
  int small = 0, large = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = dist.Sample(rng);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 30e6);
    if (v < 100e3) ++small;
    if (v > 1e6) ++large;
  }
  // >50% of flows are small, ~30% of flows are over 1MB.
  EXPECT_GT(static_cast<double>(small) / n, 0.5);
  EXPECT_NEAR(static_cast<double>(large) / n, 0.30, 0.03);
}

TEST(FixedSizeDistTest, Degenerate) {
  const auto dist = FixedSizeDistribution(4096);
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(dist.Sample(rng), 4096.0);
  EXPECT_DOUBLE_EQ(dist.Mean(), 4096.0);
}

// ---------- Double binary tree ----------

TEST(TreeTest, InOrderTreeIsValid) {
  for (int n : {1, 2, 3, 7, 8, 16, 37, 128}) {
    const Tree t = BuildInOrderBinaryTree(n);
    ASSERT_EQ(t.size(), n);
    // Exactly one root; every other node has a valid parent.
    int roots = 0;
    std::vector<int> child_count(static_cast<size_t>(n), 0);
    for (int r = 0; r < n; ++r) {
      const int p = t.parent[static_cast<size_t>(r)];
      if (p < 0) {
        ++roots;
      } else {
        ASSERT_LT(p, n);
        ASSERT_NE(p, r);
        child_count[static_cast<size_t>(p)]++;
      }
    }
    EXPECT_EQ(roots, 1) << "n=" << n;
    // Binary: at most 2 children.
    for (int c : child_count) EXPECT_LE(c, 2);
    // Connected: walking up from any node reaches the root within n steps.
    for (int r = 0; r < n; ++r) {
      int cur = r, steps = 0;
      while (t.parent[static_cast<size_t>(cur)] >= 0 && steps++ <= n) {
        cur = t.parent[static_cast<size_t>(cur)];
      }
      EXPECT_EQ(cur, t.root()) << "n=" << n << " r=" << r;
    }
  }
}

TEST(TreeTest, DepthIsLogarithmic) {
  const Tree t = BuildInOrderBinaryTree(128);
  int max_depth = 0;
  for (int r = 0; r < 128; ++r) {
    int cur = r, depth = 0;
    while (t.parent[static_cast<size_t>(cur)] >= 0) {
      cur = t.parent[static_cast<size_t>(cur)];
      ++depth;
    }
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_LE(max_depth, 8);  // ceil(log2(128)) + 1
}

TEST(TreeTest, DoubleTreeMirrorsRanks) {
  const auto [t1, t2] = BuildDoubleBinaryTree(16);
  for (int r = 0; r < 16; ++r) {
    const int p1 = t1.parent[static_cast<size_t>(15 - r)];
    const int p2 = t2.parent[static_cast<size_t>(r)];
    EXPECT_EQ(p2, p1 < 0 ? -1 : 15 - p1);
  }
}

TEST(TreeTest, InteriorInAtMostOneTree) {
  // The load-balancing property of double binary trees (even n): a rank with
  // children in T1 is a leaf in T2 and vice versa.
  for (int n : {8, 16, 64, 128}) {
    const auto [t1, t2] = BuildDoubleBinaryTree(n);
    std::vector<int> children1(static_cast<size_t>(n), 0), children2(children1);
    for (int r = 0; r < n; ++r) {
      if (t1.parent[static_cast<size_t>(r)] >= 0) {
        children1[static_cast<size_t>(t1.parent[static_cast<size_t>(r)])]++;
      }
      if (t2.parent[static_cast<size_t>(r)] >= 0) {
        children2[static_cast<size_t>(t2.parent[static_cast<size_t>(r)])]++;
      }
    }
    int both_interior = 0;
    for (int r = 0; r < n; ++r) {
      if (children1[static_cast<size_t>(r)] > 0 && children2[static_cast<size_t>(r)] > 0) {
        ++both_interior;
      }
    }
    // Allow a small number of exceptions (roots/odd middles).
    EXPECT_LE(both_interior, 2) << "n=" << n;
  }
}

TEST(TreeTest, AllReduceEdgeCount) {
  // 2 trees x (n-1) edges x 2 directions.
  EXPECT_EQ(AllReduceEdges(16).size(), 4u * 15u);
  EXPECT_EQ(AllReduceEdges(8).size(), 4u * 7u);
}

TEST(TreeTest, AllReduceEdgesAreValidPairs) {
  const auto edges = AllReduceEdges(32);
  for (const auto& [s, d] : edges) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 32);
    EXPECT_GE(d, 0);
    EXPECT_LT(d, 32);
    EXPECT_NE(s, d);
  }
}

// ---------- Schedules on a live network ----------

struct WorkloadHarness {
  WorkloadHarness() : engine(Microseconds(1), 11), net(engine.net) {
    net::StarConfig cfg;
    cfg.num_hosts = 8;
    cfg.host_rate = Bandwidth::Gbps(10);
    cfg.link_propagation = Microseconds(1);
    cfg.switch_config.tm.buffer_bytes = 1000000;
    cfg.switch_config.tm.ecn_threshold_bytes = 65 * 1500;
    cfg.switch_config.scheme_factory = [] {
      return std::make_unique<bm::DynamicThreshold>();
    };
    topo = net::BuildStar(net, cfg);
    manager = std::make_unique<transport::FlowManager>(&net);
    for (auto h : topo.hosts) manager->AttachHost(h);
  }

  void Run() { engine.Run(); }

  testing::OneShardNet engine;
  net::Network& net;
  net::StarTopology topo;
  std::unique_ptr<transport::FlowManager> manager;
};

TEST(PoissonFlowsTest, GeneratesExpectedFlowCount) {
  WorkloadHarness h;
  PoissonFlowConfig cfg;
  cfg.hosts = h.topo.hosts;
  cfg.load = 0.4;
  cfg.host_rate = Bandwidth::Gbps(10);
  cfg.size_dist = FixedSizeDistribution(100000);
  cfg.stop = Milliseconds(20);
  cfg.seed = 5;
  const std::vector<transport::FlowParams> flows = PregeneratePoissonFlows(cfg);
  // Expected: load * rate * hosts / size * time
  //         = 0.4 * 1.25e9 * 8 / 1e5 * 0.02 = 800 flows.
  EXPECT_NEAR(static_cast<double>(flows.size()), 800.0, 120.0);
  for (const auto& f : flows) {
    EXPECT_GE(f.start_time, 0);
    EXPECT_LE(f.start_time, cfg.stop);
  }
  StartFlows(*h.manager, flows);
  h.Run();
  const auto n = static_cast<int64_t>(flows.size());
  EXPECT_EQ(h.manager->counters().flows_started, n);
  // All flows eventually complete.
  EXPECT_EQ(h.manager->counters().flows_completed, n);
}

// The ids StartFlows returns are how a caller finds its own flows among the
// completion records: dense from 1, in schedule order.
TEST(PoissonFlowsTest, OwnershipTracking) {
  WorkloadHarness h;
  PoissonFlowConfig cfg;
  cfg.hosts = h.topo.hosts;
  cfg.load = 0.2;
  cfg.size_dist = FixedSizeDistribution(10000);
  cfg.stop = Milliseconds(2);
  const std::vector<transport::FlowParams> flows = PregeneratePoissonFlows(cfg);
  ASSERT_GT(flows.size(), 0u);
  const std::vector<uint64_t> ids = StartFlows(*h.manager, flows);
  ASSERT_EQ(ids.size(), flows.size());
  for (size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i + 1);
  h.Run();
  const auto& records = h.manager->completions().records();
  EXPECT_EQ(records.size(), flows.size());
  for (const auto& rec : records) {
    ASSERT_GE(rec.id, 1u);
    ASSERT_LE(rec.id, ids.size());
    EXPECT_EQ(rec.bytes, flows[rec.id - 1].size_bytes);
    EXPECT_EQ(rec.start, flows[rec.id - 1].start_time);
  }
}

TEST(IncastTest, SingleQueryQctRecorded) {
  WorkloadHarness h;
  IncastConfig cfg;
  cfg.clients = {h.topo.hosts[0]};
  cfg.servers = {h.topo.hosts.begin() + 1, h.topo.hosts.end()};
  cfg.fanin = 7;
  cfg.query_size_bytes = 700000;
  cfg.max_queries = 1;
  cfg.stop = Milliseconds(50);
  cfg.query_ideal_fn = [](net::NodeId, int64_t bytes) { return Microseconds(bytes / 1000); };
  const PregeneratedIncast incast = PregenerateIncast(cfg);
  ASSERT_EQ(incast.queries.size(), 1u);
  EXPECT_EQ(incast.queries[0].issue_time, 0);
  EXPECT_EQ(incast.flows.size(), 7u);
  const std::vector<uint64_t> ids = StartFlows(*h.manager, incast.flows);
  h.Run();
  const stats::CompletionCollector qct =
      DeriveIncastQct(incast, ids, h.manager->completions(), cfg.query_ideal_fn);
  ASSERT_EQ(qct.Count(), 1u);
  const auto& rec = qct.records()[0];
  EXPECT_EQ(rec.id, incast.queries[0].id);
  EXPECT_EQ(rec.bytes, 700000);
  EXPECT_EQ(rec.ideal, Microseconds(700));
  // 700KB into a 10G port takes >= 560us.
  EXPECT_GT(ToMilliseconds(rec.Duration()), 0.5);
  // The query ends with its last member flow.
  Time last_end = 0;
  for (const auto& f : h.manager->completions().records()) last_end = std::max(last_end, f.end);
  EXPECT_EQ(rec.end, last_end);
}

TEST(IncastTest, PoissonQueriesComplete) {
  WorkloadHarness h;
  IncastConfig cfg;
  cfg.clients = {h.topo.hosts[0], h.topo.hosts[1]};
  cfg.servers = h.topo.hosts;
  cfg.fanin = 4;
  cfg.query_size_bytes = 100000;
  cfg.queries_per_second = 2000;
  cfg.stop = Milliseconds(10);
  const PregeneratedIncast incast = PregenerateIncast(cfg);
  EXPECT_GT(incast.queries.size(), 5u);
  for (const auto& query : incast.queries) {
    EXPECT_LE(query.issue_time, cfg.stop);
    EXPECT_EQ(query.flow_indices.size(), 4u);
  }
  const std::vector<uint64_t> ids = StartFlows(*h.manager, incast.flows);
  h.Run();
  const stats::CompletionCollector qct =
      DeriveIncastQct(incast, ids, h.manager->completions(), nullptr);
  EXPECT_EQ(qct.Count(), incast.queries.size());
  // (end, id) order, one record per query.
  std::set<uint64_t> query_ids;
  for (size_t i = 0; i < qct.Count(); ++i) {
    query_ids.insert(qct.records()[i].id);
    if (i > 0) {
      EXPECT_LE(qct.records()[i - 1].end, qct.records()[i].end);
    }
  }
  EXPECT_EQ(query_ids.size(), incast.queries.size());
}

TEST(IncastTest, ServersExcludeClient) {
  WorkloadHarness h;
  IncastConfig cfg;
  cfg.clients = {h.topo.hosts[0]};
  cfg.servers = h.topo.hosts;  // includes the client; must be excluded
  cfg.fanin = 7;
  cfg.query_size_bytes = 70000;
  cfg.max_queries = 3;
  const PregeneratedIncast incast = PregenerateIncast(cfg);
  ASSERT_EQ(incast.queries.size(), 3u);  // max_queries caps the schedule
  for (const auto& query : incast.queries) {
    std::set<net::NodeId> servers;
    for (const size_t fi : query.flow_indices) {
      const transport::FlowParams& f = incast.flows[fi];
      EXPECT_NE(f.src, query.client);
      EXPECT_EQ(f.dst, query.client);
      servers.insert(f.src);
    }
    EXPECT_EQ(servers.size(), 7u) << "fanin distinct servers";
  }
  const std::vector<uint64_t> ids = StartFlows(*h.manager, incast.flows);
  h.Run();
  EXPECT_EQ(DeriveIncastQct(incast, ids, h.manager->completions(), nullptr).Count(), 3u);
}

TEST(CollectiveTest, AllReduceFlowsFollowTreeEdges) {
  WorkloadHarness h;
  auto cfg = MakeAllReduceConfig(h.topo.hosts, 0.3, Bandwidth::Gbps(10), 50000,
                                 0, Milliseconds(5), 9);
  // Validate the sampler output against the edge set.
  const auto edges = AllReduceEdges(static_cast<int>(h.topo.hosts.size()));
  std::set<std::pair<net::NodeId, net::NodeId>> valid;
  for (const auto& [s, d] : edges) {
    valid.insert({h.topo.hosts[static_cast<size_t>(s)], h.topo.hosts[static_cast<size_t>(d)]});
  }
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(valid.count(cfg.pair_sampler(rng)) > 0);
  }
  // And the traffic runs to completion.
  const std::vector<transport::FlowParams> flows = PregeneratePoissonFlows(cfg);
  ASSERT_GT(flows.size(), 0u);
  for (const auto& f : flows) EXPECT_TRUE(valid.count({f.src, f.dst}) > 0);
  StartFlows(*h.manager, flows);
  h.Run();
  EXPECT_EQ(h.manager->counters().flows_completed, static_cast<int64_t>(flows.size()));
}

}  // namespace
}  // namespace occamy::workload
