// Hardware cost model for Occamy's components (paper §5.1, Table 1).
//
// The paper synthesizes three Verilog modules — head-drop selector (64-bit
// bitmap), fixed-priority arbiter, head-drop executor — with Vivado (FPGA)
// and Design Compiler on the open-source FreePDK45 45 nm library (ASIC).
// We do not ship a synthesis flow; instead this model derives LUT / FF /
// timing / area / power figures from the structure of the same circuits
// (src/hw/circuits.h), using per-primitive technology constants.
//
// Calibration: the two technology constants (kGateLevelDelayNs and the
// area/power densities) are fitted so that the (N=64 queues, k=17-bit)
// selector matches the paper's Table 1 within tens of percent; all other
// module costs then follow from structure alone. This is an estimate, not a
// synthesis result: it reproduces the relative ordering and scaling trends
// of Table 1, not its absolute numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace occamy::hw {

// ---- Technology constants (FreePDK45-class 45 nm, fitted; see above) ----

// Average logic-level delay including local routing, ns.
inline constexpr double kGateLevelDelayNs = 0.135;
// NAND2-equivalent gate area, um^2 (FreePDK45 NAND2X1 footprint is
// ~0.798 um^2; factor ~3.8 covers routing overhead + larger cells).
inline constexpr double kGateAreaUm2 = 0.798 * 3.8;
// Dynamic power per kGate at 1 GHz with typical activity, mW.
inline constexpr double kPowerPerKGateMw = 0.118;
// NAND2-equivalent gates per FPGA 6-LUT (for LUT <-> gate conversion).
inline constexpr double kGatesPerLut = 6.0;

struct ModuleCost {
  std::string module;
  int64_t luts = 0;
  int64_t flip_flops = 0;
  double timing_ns = 0.0;
  double area_mm2 = 0.0;
  double power_mw = 0.0;
};

// Reference values from the paper's Table 1 for side-by-side printing.
struct Table1Reference {
  std::string module;
  int64_t luts;
  int64_t flip_flops;
  double timing_ns;
  double area_mm2;
  double power_mw;
};

std::vector<Table1Reference> PaperTable1();

// ---- Module cost estimators ----

// Head-drop selector: N parallel k-bit ">" comparators feeding an N-input
// round-robin arbiter; pointer + pipeline registers.
ModuleCost SelectorCost(int num_queues, int qlen_bits);

// Fixed-priority arbiter between output scheduler and head-drop selector
// (two requestors; scheduler wins).
ModuleCost FixedPriorityArbiterCost(int num_requestors = 2);

// Head-drop executor: 5-state FSM walking the Figure 10 pipeline with a
// cell counter.
ModuleCost ExecutorCost(int num_states = 5, int counter_bits = 4);

// Comparator-tree Maximum Finder (Figure 4) — what Pushout would need; used
// to reproduce the §2.2 argument that its latency is prohibitive.
ModuleCost MaximumFinderCost(int num_inputs, int bit_width);

// Convenience: all three Occamy modules as in Table 1.
std::vector<ModuleCost> OccamyTable1Costs(int num_queues = 64, int qlen_bits = 17);

}  // namespace occamy::hw
