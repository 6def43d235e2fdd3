// Shared fault-injection wiring for the scenario runners.
//
// Every runner (burst lab, DPDK star, leaf-spine fabric; single-threaded
// and sharded) arms faults the same way: parse the already-validated spec
// string, emplace the injector (it is pinned once armed — scheduled toggles
// capture its address), and Arm it against the scenario's topology before
// any workload runs. Spec strings reaching this point were validated by the
// CLI / exp-runner layer, so failures here are programming errors.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "src/fault/fault_plan.h"
#include "src/fault/injector.h"
#include "src/net/topology.h"
#include "src/util/check.h"

namespace occamy::exp {

// Fault universe of a star testbed: the switch is sw0, hosts keep their
// port order.
inline fault::FaultTopology StarFaultTopology(const net::StarTopology& topo) {
  fault::FaultTopology ft;
  ft.switches = {topo.switch_id};
  ft.hosts = topo.hosts;
  return ft;
}

// Fault universe of the leaf-spine fabric: leaves first (sw0..swL-1), then
// spines — matching the builder's id layout so sw<k> reads naturally.
inline fault::FaultTopology FabricFaultTopology(const net::LeafSpineTopology& topo) {
  fault::FaultTopology ft;
  ft.switches = topo.leaves;
  ft.switches.insert(ft.switches.end(), topo.spines.begin(), topo.spines.end());
  ft.hosts = topo.hosts;
  return ft;
}

// Parses `spec` and arms `injector` on `net` against `ft`. No-op for an
// empty spec. OCCAMY_CHECKs on failure: specs are validated upstream
// (exp::RunPoint / the CLI), which is where user errors surface as exit 2.
inline void ArmFaultsOrDie(std::optional<fault::FaultInjector>& injector, net::Network& net,
                           const std::string& spec, fault::FaultTopology ft) {
  if (spec.empty()) return;
  fault::FaultPlan plan;
  auto parse_err = fault::ParseFaultPlan(spec, &plan);
  OCCAMY_CHECK(!parse_err) << *parse_err;
  injector.emplace(&net, std::move(plan), std::move(ft));
  auto arm_err = injector->Arm();
  OCCAMY_CHECK(!arm_err) << *arm_err;
}

}  // namespace occamy::exp
