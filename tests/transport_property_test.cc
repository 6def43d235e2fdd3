// Property sweeps over the transport layer: for every congestion-control
// algorithm x buffer size x flow mix, every flow completes and delivers
// exactly its bytes, regardless of loss (failure injection via tiny
// buffers). Parameterized gtest (TEST_P).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/bm/dynamic_threshold.h"
#include "src/net/topology.h"
#include "src/transport/flow_manager.h"
#include "tests/one_shard.h"

namespace occamy::transport {
namespace {

class TransportSweepTest
    : public ::testing::TestWithParam<std::tuple<CcAlgorithm, int64_t, int>> {};

TEST_P(TransportSweepTest, AllFlowsComplete) {
  const auto [cc, buffer, num_flows] = GetParam();
  testing::OneShardNet h(Microseconds(1),
                         static_cast<uint64_t>(buffer) + static_cast<uint64_t>(num_flows));
  net::Network& net = h.net;
  net::StarConfig cfg;
  cfg.num_hosts = 8;
  cfg.host_rate = Bandwidth::Gbps(10);
  cfg.link_propagation = Microseconds(1);
  cfg.switch_config.tm.buffer_bytes = buffer;
  cfg.switch_config.tm.ecn_threshold_bytes = 30000;
  cfg.switch_config.scheme_factory = [] { return std::make_unique<bm::DynamicThreshold>(); };
  auto topo = net::BuildStar(net, cfg);
  FlowManager manager(&net);
  for (auto h : topo.hosts) manager.AttachHost(h);

  Rng rng(99);
  for (int i = 0; i < num_flows; ++i) {
    FlowParams p;
    const int src = static_cast<int>(rng.UniformInt(8));
    int dst = static_cast<int>(rng.UniformInt(7));
    if (dst >= src) ++dst;
    p.src = topo.hosts[static_cast<size_t>(src)];
    p.dst = topo.hosts[static_cast<size_t>(dst)];
    p.size_bytes = rng.UniformRange(100, 500000);
    p.cc = cc;
    p.ecn_capable = (cc == CcAlgorithm::kDctcp);
    p.start_time = Microseconds(static_cast<int64_t>(rng.UniformInt(2000)));
    manager.StartFlow(p);
  }
  h.RunUntil(Seconds(5));
  EXPECT_EQ(manager.counters().flows_completed, num_flows);
  EXPECT_EQ(manager.completions().Count(), static_cast<size_t>(num_flows));
  for (const auto& rec : manager.completions().records()) {
    EXPECT_GT(rec.bytes, 0);
    EXPECT_GE(rec.end, rec.start);
  }
}

std::string TransportParamName(
    const ::testing::TestParamInfo<std::tuple<CcAlgorithm, int64_t, int>>& param_info) {
  static const char* const cc_names[] = {"Dctcp", "Reno", "Cubic"};
  return std::string(cc_names[static_cast<int>(std::get<0>(param_info.param))]) + "_b" +
         std::to_string(std::get<1>(param_info.param)) + "_f" +
         std::to_string(std::get<2>(param_info.param));
}

INSTANTIATE_TEST_SUITE_P(
    CcBufferSweep, TransportSweepTest,
    ::testing::Combine(::testing::Values(CcAlgorithm::kDctcp, CcAlgorithm::kReno,
                                         CcAlgorithm::kCubic),
                       ::testing::Values(20000, 100000, 1000000),  // tiny..ample buffer
                       ::testing::Values(12, 40)),
    TransportParamName);

// Deterministic replay: identical seeds produce identical completion times.
TEST(TransportDeterminismTest, IdenticalSeedsIdenticalResults) {
  auto run = [] {
    testing::OneShardNet h(Microseconds(2), 1234);
    net::Network& net = h.net;
    net::StarConfig cfg;
    cfg.num_hosts = 4;
    cfg.host_rate = Bandwidth::Gbps(10);
    cfg.switch_config.tm.buffer_bytes = 50000;
    cfg.switch_config.scheme_factory = [] {
      return std::make_unique<bm::DynamicThreshold>();
    };
    auto topo = net::BuildStar(net, cfg);
    FlowManager manager(&net);
    for (auto h : topo.hosts) manager.AttachHost(h);
    for (int i = 0; i < 6; ++i) {
      FlowParams p;
      p.src = topo.hosts[static_cast<size_t>(i % 3 + 1)];
      p.dst = topo.hosts[0];
      p.size_bytes = 200000;
      manager.StartFlow(p);
    }
    h.Run();
    std::vector<Time> ends;
    for (const auto& rec : manager.completions().records()) ends.push_back(rec.end);
    return ends;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace occamy::transport
