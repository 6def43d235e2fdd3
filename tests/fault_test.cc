// Fault-injection subsystem tests (src/fault):
//  * ParseFaultPlan grammar — positives and a table-driven negative suite
//    (malformed specs must produce a descriptive error naming the offending
//    token and its byte offset, never crash). Includes the self-healing
//    kinds (link_up, restart, cp_freeze, cp_delay, gilbert) and the
//    link_down reroute flag.
//  * CLI hardening — a bad --faults= is a usage error (exit 2).
//  * Transport hardening — under a sustained blackhole the RTO backoff
//    clamps exactly at max_rto, Complete() cancels the timer, and in-flight
//    packets survive an ECMP route-epoch re-hash without duplicate
//    completion.
//  * Fault counters — every fault kind shows up in the schema v8 metrics.
//  * Recovery — ComputeRecovery unit cases (the rerouted fabric run that
//    recovers to >= 90% of its healthy twin is in tests/cli_test.cc).
//  * Determinism — faulted fabric runs are byte-identical across shard
//    counts (FaultDifferentialTest, which CI's seed matrix reruns through
//    its Differential|Golden filter) and across threads-on/threads-off
//    execution.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "src/bm/dynamic_threshold.h"
#include "src/exp/fabric_run.h"
#include "src/exp/fault_setup.h"
#include "src/exp/sweep.h"
#include "src/exp/sweep_runner.h"
#include "src/fault/fault_plan.h"
#include "src/fault/injector.h"
#include "src/fault/recovery.h"
#include "src/net/topology.h"
#include "src/transport/flow_manager.h"
#include "tests/differential.h"
#include "tools/sim_cli.h"

namespace occamy {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::ParseFaultPlan;

// ---------------- parser: grammar positives ----------------

TEST(FaultPlanParse, EmptySpecIsHealthy) {
  FaultPlan plan;
  EXPECT_FALSE(ParseFaultPlan("", &plan).has_value());
  EXPECT_TRUE(plan.empty());
}

TEST(FaultPlanParse, FullGrammarRoundTrip) {
  FaultPlan plan;
  const auto err = ParseFaultPlan(
      "link_down:t=2ms,dur=1ms,node=sw0,port=3;"
      "blackhole:t=500us,node=host2,port=0;"
      "freeze:t=1ms,dur=250us,node=sw1,part=2;"
      "loss:rate=0.01,seed=7;"
      "corrupt:rate=0.002,t=100ns,dur=3s",
      &plan);
  ASSERT_FALSE(err.has_value()) << *err;
  ASSERT_EQ(plan.events.size(), 5u);

  const auto& down = plan.events[0];
  EXPECT_EQ(down.kind, FaultKind::kLinkDown);
  EXPECT_EQ(down.at, Milliseconds(2));
  EXPECT_EQ(down.duration, Milliseconds(1));
  EXPECT_EQ(down.node, "sw0");
  EXPECT_EQ(down.port, 3);

  const auto& bh = plan.events[1];
  EXPECT_EQ(bh.kind, FaultKind::kBlackhole);
  EXPECT_EQ(bh.at, Microseconds(500));
  EXPECT_EQ(bh.duration, 0) << "omitted dur means permanent";
  EXPECT_EQ(bh.node, "host2");
  EXPECT_EQ(bh.port, 0);

  const auto& freeze = plan.events[2];
  EXPECT_EQ(freeze.kind, FaultKind::kFreeze);
  EXPECT_EQ(freeze.node, "sw1");
  EXPECT_EQ(freeze.part, 2);

  const auto& loss = plan.events[3];
  EXPECT_EQ(loss.kind, FaultKind::kLoss);
  EXPECT_DOUBLE_EQ(loss.rate, 0.01);
  EXPECT_EQ(loss.seed, 7u);

  const auto& corrupt = plan.events[4];
  EXPECT_EQ(corrupt.kind, FaultKind::kCorrupt);
  EXPECT_EQ(corrupt.at, 100 * kNanosecond);
  EXPECT_EQ(corrupt.duration, FromSeconds(3.0));
  EXPECT_EQ(corrupt.seed, 1u) << "seed defaults to 1";
}

TEST(FaultPlanParse, FreezeWithoutPartMeansAllPartitions) {
  FaultPlan plan;
  ASSERT_FALSE(ParseFaultPlan("freeze:t=1ms,node=sw0", &plan).has_value());
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].part, -1);
}

TEST(FaultPlanParse, SelfHealingGrammarRoundTrip) {
  FaultPlan plan;
  const auto err = ParseFaultPlan(
      "link_down:t=2ms,dur=1ms,node=sw0,port=4,reroute=1;"
      "restart:t=3ms,node=sw1;"
      "cp_freeze:t=1ms,dur=500us,node=sw0,part=1;"
      "cp_delay:t=2ms,dur=1ms,node=sw2,lag=20us;"
      "gilbert:t=1ms,dur=5ms,p_gb=0.05,p_bg=0.3,loss_good=0.001,"
      "loss_bad=0.4,slot=50us,seed=9",
      &plan);
  ASSERT_FALSE(err.has_value()) << *err;
  ASSERT_EQ(plan.events.size(), 5u);

  const auto& down = plan.events[0];
  EXPECT_EQ(down.kind, FaultKind::kLinkDown);
  EXPECT_TRUE(down.reroute);
  EXPECT_EQ(down.port, 4);

  const auto& restart = plan.events[1];
  EXPECT_EQ(restart.kind, FaultKind::kRestart);
  EXPECT_EQ(restart.at, Milliseconds(3));
  EXPECT_EQ(restart.node, "sw1");

  const auto& cpf = plan.events[2];
  EXPECT_EQ(cpf.kind, FaultKind::kCpFreeze);
  EXPECT_EQ(cpf.duration, Microseconds(500));
  EXPECT_EQ(cpf.part, 1);

  const auto& cpd = plan.events[3];
  EXPECT_EQ(cpd.kind, FaultKind::kCpDelay);
  EXPECT_EQ(cpd.lag, Microseconds(20));
  EXPECT_EQ(cpd.part, -1) << "omitted part means every partition";

  const auto& g = plan.events[4];
  EXPECT_EQ(g.kind, FaultKind::kGilbert);
  EXPECT_DOUBLE_EQ(g.p_gb, 0.05);
  EXPECT_DOUBLE_EQ(g.p_bg, 0.3);
  EXPECT_DOUBLE_EQ(g.loss_good, 0.001);
  EXPECT_DOUBLE_EQ(g.loss_bad, 0.4);
  EXPECT_EQ(g.slot, Microseconds(50));
  EXPECT_EQ(g.seed, 9u);
}

TEST(FaultPlanParse, GilbertDefaultsSlotAndLossGood) {
  FaultPlan plan;
  ASSERT_FALSE(
      ParseFaultPlan("gilbert:p_gb=0.1,p_bg=0.2,loss_bad=0.5", &plan).has_value());
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].slot, Microseconds(100)) << "default slot";
  EXPECT_DOUBLE_EQ(plan.events[0].loss_good, 0) << "Good state is lossless by default";
}

TEST(FaultPlanParse, LinkUpNormalizesIntoDuration) {
  FaultPlan plan;
  ASSERT_FALSE(ParseFaultPlan(
                   "link_down:t=200us,node=sw0,port=2;link_up:t=600us,node=sw0,port=2",
                   &plan)
                   .has_value());
  ASSERT_EQ(plan.events.size(), 1u) << "link_up folds into its link_down";
  EXPECT_EQ(plan.events[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.events[0].at, Microseconds(200));
  EXPECT_EQ(plan.events[0].duration, Microseconds(400))
      << "duration = link_up time minus link_down time";
}

TEST(FaultPlanParse, LinkUpMatchesLatestPrecedingPermanentDown) {
  // Two permanent downs on different ports; each link_up must bind to its
  // own port's down, not the closest entry.
  FaultPlan plan;
  ASSERT_FALSE(ParseFaultPlan(
                   "link_down:t=1ms,node=sw0,port=2;link_down:t=1ms,node=sw0,port=3;"
                   "link_up:t=4ms,node=sw0,port=2;link_up:t=6ms,node=sw0,port=3",
                   &plan)
                   .has_value());
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].port, 2);
  EXPECT_EQ(plan.events[0].duration, Milliseconds(3));
  EXPECT_EQ(plan.events[1].port, 3);
  EXPECT_EQ(plan.events[1].duration, Milliseconds(5));
}

// ---------------- parser: table-driven negatives ----------------

// Every malformed spec must be rejected with a message that names the
// offending token; none may crash. The CLI turns these into exit 2.
struct BadSpec {
  const char* spec;
  const char* expect_substr;  // must appear in the error message
};

constexpr BadSpec kBadSpecs[] = {
    // Empty / structural.
    {";loss:rate=0.1", "empty fault entry"},
    {"loss:rate=0.1;", "empty fault entry"},
    {"loss:rate=0.1;;corrupt:rate=0.1", "empty fault entry"},
    {"loss:,rate=0.1", "empty parameter"},
    {"loss:rate", "malformed parameter 'rate'"},
    {"loss:rate=", "malformed parameter 'rate='"},
    {"loss:=0.1", "malformed parameter '=0.1'"},
    // Unknown types and parameters.
    {"melt:t=1ms", "unknown fault type 'melt'"},
    {"lossy:rate=0.1", "unknown fault type 'lossy'"},
    {"loss:rate=0.1,node=sw0", "does not take parameter 'node=sw0'"},
    {"link_down:node=sw0,port=1,rate=0.5", "does not take parameter 'rate=0.5'"},
    // Bad numbers.
    {"loss:rate=abc", "bad number in 'rate=abc'"},
    {"loss:rate=0.1x", "bad number in 'rate=0.1x'"},
    {"link_down:node=sw0,port=abc", "bad number in 'port=abc'"},
    {"link_down:node=sw0,port=-1", "bad number in 'port=-1'"},
    {"loss:rate=0.1,seed=-3", "bad number in 'seed=-3'"},
    // Bad times (missing suffix, negative).
    {"link_down:t=2,node=sw0,port=1", "bad time in 't=2'"},
    {"link_down:t=2ms,dur=-1ms,node=sw0,port=1", "negative duration in 'dur=-1ms'"},
    {"link_down:t=-5us,node=sw0,port=1", "negative time in 't=-5us'"},
    // Times must be finite and at most kMaxFaultTime; seeds must fit uint64.
    {"link_down:t=1e30us,dur=1us,node=sw0,port=1", "time out of range in 't=1e30us'"},
    {"link_down:t=infus,dur=1us,node=sw0,port=1", "time out of range in 't=infus'"},
    {"link_down:t=nanus,dur=1us,node=sw0,port=1", "time out of range in 't=nanus'"},
    {"freeze:t=1ms,dur=1e300s,node=sw0", "duration out of range in 'dur=1e300s'"},
    {"loss:rate=0.1,seed=99999999999999999999999",
     "seed out of range in 'seed=99999999999999999999999'"},
    // Rate range.
    {"loss:rate=0", "rate out of range in 'rate=0'"},
    {"loss:rate=1.5", "rate out of range in 'rate=1.5'"},
    {"corrupt:rate=-0.1", "rate out of range in 'rate=-0.1'"},
    // Node shape.
    {"link_down:node=spine0,port=1", "bad node in 'node=spine0'"},
    {"link_down:node=sw,port=1", "bad node in 'node=sw'"},
    {"freeze:node=sw1a", "bad node in 'node=sw1a'"},
    // Missing required parameters.
    {"link_down:t=1ms", "'link_down' requires parameter 'node'"},
    {"link_down:node=sw0", "'link_down' requires parameter 'port'"},
    {"blackhole:port=1", "'blackhole' requires parameter 'node'"},
    {"freeze:t=1ms", "'freeze' requires parameter 'node'"},
    {"loss:seed=7", "'loss' requires parameter 'rate'"},
    {"corrupt:t=1ms", "'corrupt' requires parameter 'rate'"},
    // Duplicates.
    {"loss:rate=0.1,rate=0.2", "duplicate parameter 'rate=0.2'"},
    // Self-healing kinds (ISSUE 9).
    {"link_down:t=1ms,node=sw0,port=2,reroute=2", "bad number in 'reroute=2'"},
    {"link_up:t=1ms,node=sw0", "'link_up' requires parameter 'port'"},
    {"link_up:t=1ms,dur=1ms,node=sw0,port=2", "does not take parameter 'dur=1ms'"},
    {"link_up:t=1ms,node=sw0,port=2", "no matching permanent link_down"},
    {"link_down:t=2ms,dur=1ms,node=sw0,port=2;link_up:t=4ms,node=sw0,port=2",
     "no matching permanent link_down"},
    {"link_down:t=1ms,node=sw0,port=2;link_up:t=1ms,node=sw0,port=2",
     "link_up at or before its link_down"},
    {"restart:t=1ms", "'restart' requires parameter 'node'"},
    {"restart:t=1ms,node=sw0,dur=1ms", "does not take parameter 'dur=1ms'"},
    {"cp_freeze:t=1ms,dur=1ms", "'cp_freeze' requires parameter 'node'"},
    {"cp_freeze:t=1ms,node=sw0,lag=1us", "does not take parameter 'lag=1us'"},
    {"cp_delay:t=1ms,node=sw0", "'cp_delay' requires parameter 'lag'"},
    {"cp_delay:t=1ms,node=sw0,lag=0s", "'cp_delay' requires parameter 'lag'"},
    {"gilbert:p_gb=0.1", "'gilbert' requires parameter 'p_bg'"},
    {"gilbert:p_gb=0.1,p_bg=0.2", "'gilbert' requires parameter 'loss_bad'"},
    {"gilbert:p_gb=1.5,p_bg=0.2,loss_bad=0.5", "rate out of range in 'p_gb=1.5'"},
    {"gilbert:p_gb=0.1,p_bg=0.2,loss_bad=0.5,slot=0s", "requires a positive 'slot'"},
    {"gilbert:t=1ms,p_gb=0.1,p_bg=0.2,loss_bad=0.3,node=sw0",
     "does not take parameter 'node=sw0'"},
};

TEST(FaultPlanParse, MalformedSpecsRejectedWithOffendingToken) {
  for (const BadSpec& bad : kBadSpecs) {
    FaultPlan plan;
    const auto err = ParseFaultPlan(bad.spec, &plan);
    ASSERT_TRUE(err.has_value()) << "accepted malformed spec: " << bad.spec;
    EXPECT_NE(err->find(bad.expect_substr), std::string::npos)
        << "spec '" << bad.spec << "' produced '" << *err
        << "', expected it to mention '" << bad.expect_substr << "'";
    EXPECT_NE(err->find(" at byte "), std::string::npos)
        << "spec '" << bad.spec << "' produced '" << *err
        << "', expected a byte offset";
  }
}

TEST(FaultPlanParse, ErrorsReportByteOffsetOfOffendingToken) {
  // The offset points at the start of the offending token within the whole
  // spec string, not within its entry — long multi-entry schedules stay
  // directly addressable.
  const BadSpec kOffsets[] = {
      {"melt:t=1ms", "unknown fault type 'melt' at byte 0"},
      {"loss:rate=0.1;melt:t=1ms", "unknown fault type 'melt' at byte 14"},
      {"loss:rate=abc", "bad number in 'rate=abc' at byte 5"},
      {"link_down:node=sw0,port=1,dur=oops", "bad number in 'dur=oops' at byte 26"},
      {"restart:t=1ms,node=sw0,dur=1ms",
       "'restart' does not take parameter 'dur=1ms' at byte 23"},
  };
  for (const BadSpec& bad : kOffsets) {
    FaultPlan plan;
    const auto err = ParseFaultPlan(bad.spec, &plan);
    ASSERT_TRUE(err.has_value()) << bad.spec;
    EXPECT_NE(err->find(bad.expect_substr), std::string::npos)
        << "spec '" << bad.spec << "' produced '" << *err << "'";
  }
}

// ---------------- CLI hardening ----------------

TEST(FaultCli, BadFaultsIsUsageErrorExit2) {
  const char* argv[] = {"occamy_sim", "run", "--scenario=burst", "--bm=dt",
                        "--faults=loss:rate=abc"};
  EXPECT_EQ(cli::Main(5, argv), 2);
  // A time past the int64 picosecond range used to abort inside the run.
  const char* huge_time[] = {"occamy_sim", "run", "--scenario=websearch", "--scale=smoke",
                             "--duration-ms=2",
                             "--faults=link_down:t=1e30us,dur=1us,node=sw0,port=1"};
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(cli::Main(6, huge_time), 2);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("t=1e30us"), std::string::npos) << err;
}

TEST(FaultCli, ParseArgsNamesOffendingToken) {
  const char* argv[] = {"occamy_sim", "--faults=link_down:t=2,node=sw0,port=1"};
  cli::SimOptions opts;
  const auto err = cli::ParseArgs(2, argv, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("'t=2'"), std::string::npos) << *err;
}

TEST(FaultCli, DegradationRequiresFaults) {
  const char* argv[] = {"occamy_sim", "--degradation"};
  cli::SimOptions opts;
  const auto err = cli::ParseArgs(2, argv, opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_NE(err->find("--degradation"), std::string::npos) << *err;
}

TEST(FaultCli, GoodFaultsAccepted) {
  const char* argv[] = {"occamy_sim",
                        "--faults=link_down:t=2ms,dur=1ms,node=sw0,port=3",
                        "--degradation"};
  cli::SimOptions opts;
  EXPECT_FALSE(cli::ParseArgs(3, argv, opts).has_value());
  EXPECT_EQ(opts.faults, "link_down:t=2ms,dur=1ms,node=sw0,port=3");
  EXPECT_TRUE(opts.degradation);
}

// ---------------- transport hardening under blackhole ----------------

// Star harness with an adjustable transport config and a fault injector
// armed before any flow starts (same-time toggles then precede packets).
struct FaultHarness {
  explicit FaultHarness(const std::string& spec,
                        transport::TransportConfig config = {})
      : sim(7), net(&sim) {
    net::StarConfig cfg;
    cfg.num_hosts = 4;
    cfg.host_rate = Bandwidth::Gbps(10);
    cfg.link_propagation = Microseconds(1);
    cfg.switch_config.tm.buffer_bytes = 500000;
    cfg.switch_config.scheme_factory = [] {
      return std::make_unique<bm::DynamicThreshold>();
    };
    topo = net::BuildStar(net, cfg);
    exp::ArmFaultsOrDie(injector, net, spec, exp::StarFaultTopology(topo));
    manager = std::make_unique<transport::FlowManager>(&net, config);
    for (auto h : topo.hosts) manager->AttachHost(h);
  }

  uint64_t Flow(int src, int dst, int64_t bytes) {
    transport::FlowParams p;
    p.src = topo.hosts[static_cast<size_t>(src)];
    p.dst = topo.hosts[static_cast<size_t>(dst)];
    p.size_bytes = bytes;
    p.cc = transport::CcAlgorithm::kDctcp;
    p.start_time = 0;
    return manager->StartFlow(p);
  }

  sim::Simulator sim;
  net::Network net;
  net::StarTopology topo;
  std::optional<fault::FaultInjector> injector;
  std::unique_ptr<transport::FlowManager> manager;
};

TEST(FaultTransport, RtoBackoffClampsAtMaxRtoUnderSustainedBlackhole) {
  transport::TransportConfig config;
  config.min_rto = config.initial_rto = Milliseconds(5);
  config.max_rto = Milliseconds(50);
  // Permanent blackhole of the switch egress toward host1: data vanishes,
  // no ACK ever returns, the sender times out forever.
  FaultHarness h("blackhole:node=sw0,port=1", config);
  const uint64_t id = h.Flow(0, 1, 100000);
  h.sim.RunUntil(Milliseconds(400));

  transport::Connection* conn = h.manager->FindConnection(id);
  ASSERT_NE(conn, nullptr);
  EXPECT_FALSE(conn->completed());
  // Backoff doubles 5,10,20,40 then clamps: 5ms<<4 = 80ms > max_rto. The
  // exponent itself saturates at 8 (no unbounded shift).
  EXPECT_EQ(conn->rto_backoff(), 8);
  EXPECT_EQ(conn->last_rto_timeout(), Milliseconds(50))
      << "armed timeout must clamp exactly at max_rto";
  // 5+10+20+40+50k ms: at least 8 timeouts fit in 400 ms.
  EXPECT_GE(conn->rto_count(), 8);
  EXPECT_TRUE(conn->rto_timer_pending()) << "live flow keeps its timer armed";
  EXPECT_GT(h.injector->Totals().blackhole_drops, 0);
}

TEST(FaultTransport, CompleteCancelsRtoTimerAfterBlackholeLifts) {
  transport::TransportConfig config;
  config.min_rto = config.initial_rto = Milliseconds(5);
  config.max_rto = Milliseconds(50);
  // Transient blackhole: the flow RTOs through the outage, then recovers
  // and completes; Complete() must cancel the timer (a leaked handle would
  // fire into a dead flow).
  FaultHarness h("blackhole:t=0ns,dur=30ms,node=sw0,port=1", config);
  const uint64_t id = h.Flow(0, 1, 50000);
  // The manager defers connection destruction past Complete(), so the
  // timer state is probed from the synchronous completion listener — the
  // instant after Complete() ran, before the connection is erased.
  bool probed = false;
  h.manager->AddCompletionListener(
      [&](const transport::FlowParams& p, Time /*end*/) {
        if (p.id != id) return;
        transport::Connection* conn = h.manager->FindConnection(id);
        ASSERT_NE(conn, nullptr);
        EXPECT_TRUE(conn->completed());
        EXPECT_FALSE(conn->rto_timer_pending())
            << "Complete() must cancel rto_timer_";
        EXPECT_EQ(conn->rto_backoff(), 0) << "new ACKs reset the backoff";
        EXPECT_GE(conn->rto_count(), 1)
            << "the outage must actually have bitten";
        probed = true;
      });
  h.sim.Run();

  EXPECT_TRUE(probed) << "flow never completed";
  EXPECT_EQ(h.manager->completions().Count(), 1u);
  EXPECT_EQ(h.injector->Totals().faults_injected, 2)
      << "blackhole on + off";
}

// In-flight packets must survive an ECMP route-epoch re-hash: flows whose
// hash moved to a surviving uplink keep completing exactly once (no
// duplicate completion records from retransmits racing the new path), and
// the whole batch finishes despite the mid-flow outage.
TEST(FaultTransport, InFlightPacketsSurviveEcmpRehashWithoutDuplicateCompletion) {
  sim::Simulator sim(7);
  net::Network net(&sim);
  net::LeafSpineConfig cfg;
  cfg.num_spines = 2;
  cfg.num_leaves = 2;
  cfg.hosts_per_leaf = 2;
  cfg.host_rate = cfg.uplink_rate = Bandwidth::Gbps(10);
  cfg.link_propagation = Microseconds(10);
  cfg.tm.buffer_bytes = 500000;
  cfg.scheme_factory = [] { return std::make_unique<bm::DynamicThreshold>(); };
  net::LeafSpineTopology topo = net::BuildLeafSpine(net, cfg);

  // Sever leaf0's uplink to spine0 (port hosts_per_leaf + 0 = 2) mid-run
  // with rerouting: cross-rack flows re-hash onto the surviving uplink.
  std::optional<fault::FaultInjector> injector;
  exp::ArmFaultsOrDie(injector, net,
                        "link_down:t=1ms,dur=2ms,node=sw0,port=2,reroute=1",
                        exp::FabricFaultTopology(topo));

  transport::FlowManager manager(&net, {});
  for (auto h : topo.hosts) manager.AttachHost(h);
  // Cross-rack flows large enough to still be in flight at t=1ms on 10G
  // (1MB ~ 0.8ms of wire time each, shared): some hash onto the downed
  // uplink and must migrate.
  constexpr int kFlows = 6;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kFlows; ++i) {
    transport::FlowParams p;
    p.src = topo.hosts[static_cast<size_t>(i % 2)];        // rack 0
    p.dst = topo.hosts[static_cast<size_t>(2 + (i % 2))];  // rack 1
    p.size_bytes = 1000 * 1000;
    p.cc = transport::CcAlgorithm::kDctcp;
    p.start_time = Microseconds(50 * i);
    ids.push_back(manager.StartFlow(p));
  }
  sim.RunUntil(Milliseconds(400));

  EXPECT_GT(injector->Totals().reroutes, 0);
  std::map<uint64_t, int> completions_per_flow;
  for (const auto& rec : manager.completions().records()) {
    ++completions_per_flow[rec.id];
  }
  for (const uint64_t id : ids) {
    EXPECT_EQ(completions_per_flow[id], 1)
        << "flow " << id << " must complete exactly once across the re-hash";
  }
  EXPECT_EQ(manager.completions().Count(), static_cast<size_t>(kFlows));
}

// ---------------- fault counters in schema v8 metrics ----------------

exp::Metrics RunSmokePoint(const char* scenario, const char* faults,
                           double duration_ms = 1.0) {
  exp::PointSpec spec;
  spec.scenario = scenario;
  spec.bm = "occamy";
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = duration_ms;
  spec.seed = 1;
  if (faults != nullptr) spec.faults = faults;
  return testing::RunPointOrFail(spec);
}

TEST(FaultCounters, HealthyRunCarriesZeroedFaultFields) {
  const exp::Metrics m = RunSmokePoint("burst", nullptr);
  EXPECT_EQ(m.Number("schema_version"), 8);
  // Always present so the fingerprint shape is plan-independent.
  for (const char* key :
       {"faults_injected", "packets_lost_injected", "packets_corrupted",
        "blackhole_drops", "link_down_drops", "reroutes", "flushed_bytes_restart",
        "burst_loss_packets", "cp_stalled_steps"}) {
    const auto* v = m.Find(key);
    ASSERT_NE(v, nullptr) << key;
    EXPECT_EQ(v->i, 0) << key;
  }
  EXPECT_EQ(m.Find("faults"), nullptr) << "no schedule field on healthy runs";
}

TEST(FaultCounters, LinkFlapDropsAndCountsTwoInjections) {
  const exp::Metrics m =
      RunSmokePoint("burst", "link_down:t=500us,dur=300us,node=sw0,port=2");
  EXPECT_EQ(m.Number("faults_injected"), 2) << "down + restore";
  EXPECT_GT(m.Number("link_down_drops"), 0);
  EXPECT_EQ(m.Str("faults"), "link_down:t=500us,dur=300us,node=sw0,port=2");
}

TEST(FaultCounters, PermanentBlackholeCountsDrops) {
  const exp::Metrics m = RunSmokePoint("burst", "blackhole:node=sw0,port=2");
  EXPECT_EQ(m.Number("faults_injected"), 1) << "permanent: no restore event";
  EXPECT_GT(m.Number("blackhole_drops"), 0);
}

TEST(FaultCounters, IidLossCountsInjectedLosses) {
  const exp::Metrics m =
      RunSmokePoint("websearch", "loss:rate=0.01,seed=7", 2.0);
  EXPECT_GT(m.Number("packets_lost_injected"), 0);
  EXPECT_EQ(m.Number("faults_injected"), 1);
}

TEST(FaultCounters, CorruptionDroppedAtReceiverAndCounted) {
  const exp::Metrics m =
      RunSmokePoint("burst_absorption", "corrupt:rate=0.01,seed=3", 2.0);
  EXPECT_GT(m.Number("packets_corrupted"), 0);
}

TEST(FaultCounters, FreezeDegradesQct) {
  exp::PointSpec spec;
  spec.scenario = "incast";
  spec.bm = "occamy";
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = 8.0;
  const exp::Metrics healthy = testing::RunPointOrFail(spec);
  // Star incast queries only start at t=5ms (the workload lets the
  // background establish itself first), so the window must sit on top of
  // query activity to bite.
  spec.faults = "freeze:t=5ms,dur=2ms,node=sw0";
  const exp::Metrics frozen = testing::RunPointOrFail(spec);
  EXPECT_EQ(frozen.Number("faults_injected"), 2) << "freeze + thaw";
  // Arrivals kept queueing while egress was halted, so queries crossing the
  // window finish strictly later; no query can get faster.
  EXPECT_GE(frozen.Number("qct_avg_ms"), healthy.Number("qct_avg_ms"));
  EXPECT_GT(frozen.Number("qct_p99_ms"), healthy.Number("qct_p99_ms"));
}

TEST(FaultCounters, RestartFlushesBufferedBytesAndResetsState) {
  const exp::Metrics m = RunSmokePoint("burst", "restart:t=500us,node=sw0");
  EXPECT_EQ(m.Number("faults_injected"), 1) << "restart is instantaneous";
  EXPECT_GT(m.Number("flushed_bytes_restart"), 0)
      << "the overloaded burst buffer must have held packets to flush";
}

TEST(FaultCounters, CpFreezeStallsExpulsionSteps) {
  const exp::Metrics m =
      RunSmokePoint("burst_absorption", "cp_freeze:t=500us,dur=1ms,node=sw0", 2.0);
  EXPECT_EQ(m.Number("faults_injected"), 2) << "freeze + thaw";
  EXPECT_GT(m.Number("cp_stalled_steps"), 0)
      << "kicks during the freeze must count as stalled steps";
}

TEST(FaultCounters, CpDelayLagsExpulsionSteps) {
  const exp::Metrics m = RunSmokePoint(
      "burst_absorption", "cp_delay:t=500us,dur=1ms,node=sw0,lag=20us", 2.0);
  EXPECT_EQ(m.Number("faults_injected"), 2);
  EXPECT_GT(m.Number("cp_stalled_steps"), 0);
}

TEST(FaultCounters, GilbertCountsBurstLossSeparately) {
  const exp::Metrics m = RunSmokePoint(
      "websearch", "gilbert:p_gb=0.05,p_bg=0.3,loss_bad=0.3,slot=50us,seed=5", 2.0);
  EXPECT_EQ(m.Number("faults_injected"), 1);
  EXPECT_GT(m.Number("burst_loss_packets"), 0);
  EXPECT_EQ(m.Number("packets_lost_injected"), 0)
      << "burst loss must not leak into the i.i.d. loss counter";
}

TEST(FaultCounters, ReroutePublishesEpochsOnBothEndpointSwitches) {
  const exp::Metrics m = RunSmokePoint(
      "websearch", "link_down:t=500us,dur=500us,node=sw0,port=4,reroute=1", 2.0);
  // Down + restore epochs on both the leaf and its spine: 4 publications.
  EXPECT_EQ(m.Number("reroutes"), 4);
  EXPECT_EQ(m.Number("faults_injected"), 2);
}

TEST(FaultCounters, LossRateKnobComposesIntoSchedule) {
  exp::PointSpec spec;
  spec.scenario = "incast";
  spec.bm = "occamy";
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = 2.0;
  spec.loss_rate = 0.02;
  const exp::Metrics m = testing::RunPointOrFail(spec);
  EXPECT_GT(m.Number("packets_lost_injected"), 0);
  EXPECT_DOUBLE_EQ(m.Number("loss_rate"), 0.02);
  EXPECT_EQ(m.Str("faults"), "loss:rate=0.02");
}

TEST(FaultCounters, RunPointRejectsBadFaultKnobs) {
  exp::PointSpec spec;
  spec.scenario = "incast";
  spec.bm = "occamy";
  spec.loss_rate = 1.5;
  exp::PointResult r = exp::RunPoint(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("loss_rate"), std::string::npos) << r.error;

  spec.loss_rate = 0;
  spec.faults = "melt:t=1ms";
  r = exp::RunPoint(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unknown fault type"), std::string::npos) << r.error;
}

// ---------------- time-to-recovery (src/fault/recovery.h) ----------------

TEST(FaultRecovery, ComputeRecoveryFindsSustainedReturnToHealthyRate) {
  // 100 B/ms steady, a 5 ms total outage from onset, then full recovery.
  std::vector<int64_t> faulted(20, 100), healthy(20, 100);
  for (int i = 5; i < 10; ++i) faulted[static_cast<size_t>(i)] = 0;
  const fault::RecoveryReport r = fault::ComputeRecovery(faulted, healthy, 5.0);
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.first_delivery_after_fault_ms, 10.0);
  // Trailing 5 ms windows: the faulted rate first clears 90% of healthy at
  // t=14 (window 10..14 fully recovered) and sustains through t=16, so the
  // recovery is dated to t=14 -> 9 ms after the t=5 onset.
  EXPECT_EQ(r.recovery_time_ms, 9.0);
}

TEST(FaultRecovery, ComputeRecoveryReportsNeverRecovered) {
  std::vector<int64_t> faulted(20, 100), healthy(20, 100);
  for (int i = 5; i < 20; ++i) faulted[static_cast<size_t>(i)] = 0;
  const fault::RecoveryReport r = fault::ComputeRecovery(faulted, healthy, 5.0);
  EXPECT_FALSE(r.recovered);
  EXPECT_EQ(r.first_delivery_after_fault_ms, -1.0);
  EXPECT_EQ(r.recovery_time_ms, -1.0);
}

TEST(FaultRecovery, ComputeRecoveryIsVacuousWhenHealthyDeliveredNothing) {
  // Nothing to lose: an idle healthy twin means instant recovery.
  const std::vector<int64_t> faulted(10, 0), healthy(10, 0);
  const fault::RecoveryReport r = fault::ComputeRecovery(faulted, healthy, 0.0);
  EXPECT_TRUE(r.recovered);
  EXPECT_EQ(r.recovery_time_ms, 0.0);
}

// ---------------- sweep integration ----------------

// The grid runs at smoke scale on 2 jobs, and every run loses packets.
TEST(FaultSweep, LossRatesAreAGridAxisAndFaultsARunCondition) {
  exp::SweepSpec spec;
  spec.scenarios = {"incast"};
  spec.bms = {"dt", "occamy"};
  spec.seeds = 2;
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = 2;
  spec.loss_rates = {0.01, 0.02};
  spec.faults = "freeze:t=100us,dur=50us,node=sw0";
  EXPECT_EQ(exp::GridSize(spec), 2u * 2u * 2u);
  std::vector<exp::SweepPoint> points;
  ASSERT_FALSE(exp::ExpandSweep(spec, points).has_value());
  ASSERT_EQ(points.size(), 8u);
  for (const auto& p : points) {
    EXPECT_TRUE(p.spec.loss_rate == 0.01 || p.spec.loss_rate == 0.02);
    EXPECT_EQ(p.spec.faults, spec.faults) << "applied to every point";
    EXPECT_NE(p.run_key.find("loss_rate="), std::string::npos) << p.run_key;
    EXPECT_EQ(p.cell_key.find("faults"), std::string::npos)
        << "run condition, not a key field: " << p.cell_key;
  }
  exp::SweepRunOptions options;
  options.jobs = 2;
  for (const exp::RunRecord& record : exp::RunSweep(points, options)) {
    ASSERT_TRUE(record.ok) << record.point.run_key << ": " << record.error;
    EXPECT_GT(record.metrics.Number("packets_lost_injected"), 0) << record.point.run_key;
  }
}

// ---------------- determinism: shard-count invariance ----------------

// Faults on the fabric at 2 and 4 shards: leaves, spines and their hosts
// sit on different shards, so every toggle and the packets it hits cross
// shards. Each row names the counters its fault must fire, so the
// invariance is never vacuous.
exp::PointSpec FabricFaultPoint(const char* faults, uint64_t seed) {
  exp::PointSpec spec;
  spec.scenario = "websearch";
  spec.bm = "occamy";
  spec.scale = exp::BenchScale::kSmoke;
  spec.duration_ms = 2.0;
  spec.seed = seed;
  spec.faults = faults;
  return spec;
}

TEST(FaultDifferentialTest, LinkFlapShardInvariant) {
  testing::ExpectShardCountInvariant(
      FabricFaultPoint("link_down:t=500us,dur=1ms,node=sw0,port=2", testing::ShiftedSeed(4)),
      {2, 4}, {"faults_injected", "link_down_drops"});
}

TEST(FaultDifferentialTest, WebsearchLossShardInvariant) {
  testing::ExpectShardCountInvariant(
      FabricFaultPoint("loss:rate=0.01,seed=7", testing::ShiftedSeed(1)), {2, 4},
      {"faults_injected", "packets_lost_injected"});
}

TEST(FaultDifferentialTest, LossCorruptFreezeShardInvariant) {
  testing::ExpectShardCountInvariant(
      FabricFaultPoint("loss:rate=0.005,seed=11;corrupt:rate=0.002,seed=13;"
                       "freeze:t=500us,dur=400us,node=sw1",
                       testing::ShiftedSeed(4)),
      {2, 4}, {"faults_injected", "packets_lost_injected", "packets_corrupted"});
}

TEST(FaultDifferentialTest, RerouteShardInvariant) {
  testing::ExpectShardCountInvariant(
      FabricFaultPoint("link_down:t=500us,dur=500us,node=sw0,port=4,reroute=1",
                       testing::ShiftedSeed(3)),
      {2, 4}, {"reroutes"});
}

// Pinned seed: a restart flushes only what the buffer holds at that
// instant, and on many seeds the leaf is empty at t=1ms.
TEST(FaultDifferentialTest, RestartShardInvariant) {
  testing::ExpectShardCountInvariant(FabricFaultPoint("restart:t=1ms,node=sw0", 4), {2, 4},
                                     {"faults_injected", "flushed_bytes_restart"});
}

TEST(FaultDifferentialTest, CpFreezeAndDelayShardInvariant) {
  testing::ExpectShardCountInvariant(
      FabricFaultPoint("cp_freeze:t=500us,dur=500us,node=sw0;"
                       "cp_delay:t=1200us,dur=400us,node=sw0,lag=20us",
                       testing::ShiftedSeed(4)),
      {2, 4}, {"faults_injected", "cp_stalled_steps"});
}

TEST(FaultDifferentialTest, GilbertBurstLossShardInvariant) {
  testing::ExpectShardCountInvariant(
      FabricFaultPoint("gilbert:p_gb=0.05,p_bg=0.3,loss_bad=0.3,slot=50us,seed=5",
                       testing::ShiftedSeed(6)),
      {2, 4}, {"burst_loss_packets"});
}

// ---------------- determinism: threads vs inline ----------------

// The same 2-shard fabric run with worker threads and inline, on the
// pinned seed whose restart flushes bytes.
std::pair<exp::FabricRunResult, exp::FabricRunResult> RunFabricThreadsAndInline(
    const char* faults) {
  exp::FabricRunSpec run;
  run.scheme = exp::Scheme::kOccamy;
  run.scale = exp::BenchScale::kSmoke;
  run.duration = Milliseconds(2);
  run.seed = 4;
  run.shards = 2;
  run.faults = faults;
  run.shard_threads = true;
  exp::FabricRunResult threads = exp::RunFabric(run);
  run.shard_threads = false;
  return {std::move(threads), exp::RunFabric(run)};
}

TEST(FaultDifferentialTest, ThreadsAndInlineShardingAgreeUnderFaults) {
  const auto [threads, inline_run] =
      RunFabricThreadsAndInline("link_down:t=500us,dur=300us,node=sw0,port=2");
  EXPECT_EQ(threads.delivered_bytes, inline_run.delivered_bytes);
  EXPECT_EQ(threads.telemetry.drops, inline_run.telemetry.drops);
  EXPECT_EQ(threads.telemetry.sim_events, inline_run.telemetry.sim_events);
  EXPECT_EQ(threads.telemetry.faults.link_down_drops, inline_run.telemetry.faults.link_down_drops);
  EXPECT_EQ(threads.telemetry.faults.faults_injected, inline_run.telemetry.faults.faults_injected);
  EXPECT_GT(threads.telemetry.faults.link_down_drops, 0);
}

TEST(FaultDifferentialTest, ThreadsAndInlineShardingAgreeUnderRestart) {
  const auto [threads, inline_run] = RunFabricThreadsAndInline("restart:t=1ms,node=sw0");
  EXPECT_EQ(threads.delivered_bytes, inline_run.delivered_bytes);
  EXPECT_EQ(threads.telemetry.sim_events, inline_run.telemetry.sim_events);
  EXPECT_EQ(threads.telemetry.faults.flushed_bytes_restart,
            inline_run.telemetry.faults.flushed_bytes_restart);
  EXPECT_GT(threads.telemetry.faults.flushed_bytes_restart, 0);
}

}  // namespace
}  // namespace occamy
