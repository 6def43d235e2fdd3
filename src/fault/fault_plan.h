// Typed fault schedules for the deterministic fault-injection subsystem.
//
// A FaultPlan is the parsed form of the `--faults=` CLI grammar (and of the
// sweep fault knobs): a list of typed fault events with activation times,
// durations, targets, and rates. Parsing is topology-independent — node
// names like "sw0"/"host3" stay symbolic until fault::FaultInjector::Arm
// resolves them against a concrete network — so the CLI can validate a spec
// (and exit 2 naming the offending token and its byte offset) before any
// scenario is built.
//
// Grammar (`;` separates faults, `,` separates parameters):
//
//   spec       := fault (';' fault)*
//   fault      := type ':' param '=' value (',' param '=' value)*
//   type       := link_down | link_up | blackhole | freeze | loss | corrupt
//               | restart | cp_freeze | cp_delay | gilbert
//   time value := <double> ('ns' | 'us' | 'ms' | 's')   (suffix required;
//                 finite, 0 to kMaxFaultTime = 1000 s)
//
//   link_down  t=<time> dur=<time> node=<sw|host><k> port=<int> [reroute=0|1]
//              Both directions of the link at (node, port) drop every
//              packet while down; dur=0 (or omitted) keeps it down forever.
//              reroute=1 additionally publishes a route-epoch update at the
//              next conservative-window boundary that removes the dead port
//              from every affected ECMP group on the two adjacent switches
//              (and restores it when the link comes back up).
//   link_up    t=<time> node=<sw|host><k> port=<int>
//              Explicitly ends the most recent permanent link_down on the
//              same (node, port); equivalent to giving that link_down a
//              dur= of (link_up.t - link_down.t). Parse-time normalized —
//              the plan the injector sees never contains link_up events.
//   blackhole  t=<time> dur=<time> node=<sw|host><k> port=<int>
//              The egress direction only: packets *sent from* (node, port)
//              vanish; returning traffic still flows (gray failure).
//   freeze     t=<time> dur=<time> node=sw<k> [part=<int>]
//              The switch partition's egress machinery stops serving
//              (arrivals still enqueue and overflow); part omitted freezes
//              every partition of the switch.
//   restart    t=<time> node=sw<k>
//              Instantaneous switch restart: every packet buffered in the
//              switch's TmPartitions is flushed (counted as restart-flush
//              drops and flushed bytes), and BM scheme + expulsion-engine
//              state is reset to power-on defaults.
//   cp_freeze  t=<time> dur=<time> node=sw<k> [part=<int>]
//              Control-plane freeze: the partition's ExpulsionEngine stops
//              stepping (no victim selection / expulsion) while the data
//              path keeps enqueuing and dequeuing; stalled steps counted.
//   cp_delay   t=<time> dur=<time> lag=<time> node=sw<k> [part=<int>]
//              Control-plane lag: every ExpulsionEngine scheduling decision
//              is delayed by `lag`, modelling a stale control plane.
//   loss       rate=<double in (0,1]> [seed=<uint64>] [t=..] [dur=..]
//              I.i.d. per-delivery packet loss on every link.
//   corrupt    rate=<double in (0,1]> [seed=<uint64>] [t=..] [dur=..]
//              I.i.d. per-delivery bit corruption; the corrupted packet is
//              delivered and dropped by the receiver's FCS check (counted
//              separately from loss).
//   gilbert    p_gb=<prob> p_bg=<prob> loss_bad=<rate> [loss_good=<rate>]
//              [slot=<time>] [seed=<uint64>] [t=..] [dur=..]
//              Gilbert-Elliott two-state correlated (burst) loss: each
//              (node, lane) walks a Good/Bad Markov chain in fixed time
//              slots (default 100us); per-delivery loss probability is
//              loss_good (default 0) in Good and loss_bad in Bad. All
//              draws are pure functions of (seed, slot index, lane, seq),
//              so metrics stay byte-identical for any --shards>=1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/util/time.h"

namespace occamy::fault {

// Largest fault time, duration, lag or slot: 1000 s of simulated time,
// 1000x the longest run here, and small enough that sums of such values stay
// far inside the int64 picosecond range.
inline constexpr Time kMaxFaultTime = 1000 * kSecond;

enum class FaultKind {
  kLinkDown,
  kLinkUp,  // parse-time only: normalized into the matching link_down's dur
  kBlackhole,
  kFreeze,
  kRestart,
  kCpFreeze,
  kCpDelay,
  kLoss,
  kCorrupt,
  kGilbert,
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kLinkDown;
  Time at = 0;        // activation time (simulated; 0 = from the start)
  Time duration = 0;  // 0 = permanent
  std::string node;   // "sw<k>" / "host<k>"; resolved by FaultInjector::Arm
  int port = -1;      // link_down/blackhole/link_up target port
  int part = -1;      // freeze/cp_*: partition index, -1 = every partition
  double rate = 0;    // loss/corrupt probability per delivery
  uint64_t seed = 1;  // loss/corrupt/gilbert draw stream (never workload Rng)
  bool reroute = false;  // link_down: publish route-epoch updates
  Time lag = 0;          // cp_delay: added control-plane scheduling latency
  // Gilbert-Elliott chain parameters.
  double p_gb = 0;        // P(Good -> Bad) per slot
  double p_bg = 0;        // P(Bad -> Good) per slot
  double loss_good = 0;   // per-delivery loss rate while Good
  double loss_bad = 0;    // per-delivery loss rate while Bad
  Time slot = 100 * kMicrosecond;  // Markov-chain slot width
};

struct FaultPlan {
  std::vector<FaultEvent> events;
  bool empty() const { return events.empty(); }
};

// Parses `spec` into `*out` (cleared first). Empty spec parses to an empty
// plan. On failure returns an error message naming the offending token and
// its byte offset in `spec`; `*out` is then unspecified. `link_up:` events
// are normalized away: each must terminate the latest preceding permanent
// `link_down:` on the same (node, port), whose duration it sets.
std::optional<std::string> ParseFaultPlan(const std::string& spec, FaultPlan* out);

}  // namespace occamy::fault
