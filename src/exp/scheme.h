// Scheme selection for the scenario runners, benches, examples and tests:
// maps a scheme kind to (BM factory + TM tweaks), with the alpha settings
// used throughout the paper's evaluation (§6.2): DT alpha=1, ABM alpha=2,
// Occamy alpha=8; Pushout needs none.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/bm/abm.h"
#include "src/bm/dynamic_threshold.h"
#include "src/bm/enhanced_dt.h"
#include "src/bm/pushout.h"
#include "src/bm/quasi_pushout.h"
#include "src/bm/static_threshold.h"
#include "src/bm/traffic_aware_dt.h"
#include "src/core/occamy_bm.h"
#include "src/net/switch.h"
#include "src/tm/traffic_manager.h"

namespace occamy::exp {

enum class Scheme {
  kDt,
  kAbm,
  kPushout,
  kOccamy,
  kOccamyLongestDrop,  // Fig. 21 ablation
  kCompleteSharing,
  kEdt,  // related-work baselines (§7)
  kTdt,
  kQpo,
};

// The one scheme table: CLI name (occamy_sim --bm, sweep grids) and the
// display name benches and examples print.
struct SchemeInfo {
  Scheme scheme;
  const char* name;
  const char* display_name;
};

inline constexpr SchemeInfo kSchemeTable[] = {
    {Scheme::kDt, "dt", "DT"},
    {Scheme::kAbm, "abm", "ABM"},
    {Scheme::kPushout, "pushout", "Pushout"},
    {Scheme::kOccamy, "occamy", "Occamy"},
    {Scheme::kOccamyLongestDrop, "occamy_lqd", "Occamy-LQD"},
    {Scheme::kCompleteSharing, "cs", "CS"},
    {Scheme::kEdt, "edt", "EDT"},
    {Scheme::kTdt, "tdt", "TDT"},
    {Scheme::kQpo, "qpo", "QPO"},
};

inline const char* SchemeName(Scheme s) {
  for (const auto& e : kSchemeTable) {
    if (e.scheme == s) return e.display_name;
  }
  return "?";
}

inline std::optional<Scheme> SchemeByName(const std::string& name) {
  for (const auto& e : kSchemeTable) {
    if (name == e.name) return e.scheme;
  }
  return std::nullopt;
}

inline std::vector<std::string> SchemeNames() {
  std::vector<std::string> names;
  for (const auto& e : kSchemeTable) names.emplace_back(e.name);
  return names;
}

inline double DefaultAlpha(Scheme s) {
  switch (s) {
    case Scheme::kDt: return 1.0;       // paper default, per [27]
    case Scheme::kAbm: return 2.0;      // paper §6.2
    case Scheme::kOccamy: return 8.0;   // paper recommendation §4.4
    case Scheme::kOccamyLongestDrop: return 8.0;
    case Scheme::kEdt: return 1.0;
    case Scheme::kTdt: return 1.0;  // TDT carries per-state alphas itself
    default: return 1.0;
  }
}

inline net::BmSchemeFactory MakeFactory(Scheme s) {
  switch (s) {
    case Scheme::kDt:
      return [] { return std::make_unique<bm::DynamicThreshold>(); };
    case Scheme::kAbm:
      return [] { return std::make_unique<bm::Abm>(); };
    case Scheme::kPushout:
      return [] { return std::make_unique<bm::Pushout>(); };
    case Scheme::kOccamy:
    case Scheme::kOccamyLongestDrop:
      return [] { return std::make_unique<core::OccamyBm>(); };
    case Scheme::kCompleteSharing:
      return [] { return std::make_unique<bm::CompleteSharing>(); };
    case Scheme::kEdt:
      return [] { return std::make_unique<bm::EnhancedDt>(); };
    case Scheme::kTdt:
      return [] { return std::make_unique<bm::TrafficAwareDt>(); };
    case Scheme::kQpo:
      return [] { return std::make_unique<bm::QuasiPushout>(); };
  }
  return nullptr;
}

// Applies scheme-specific TM settings: per-class alphas and (for Occamy)
// the expulsion engine. `alphas` may be empty to use the scheme default for
// every class.
inline void ApplyScheme(tm::TmConfig& tm, Scheme s, std::vector<double> alphas = {}) {
  if (alphas.empty()) {
    alphas.assign(static_cast<size_t>(std::max(1, tm.queues_per_port)), DefaultAlpha(s));
  }
  tm.class_configs.clear();
  for (size_t c = 0; c < alphas.size(); ++c) {
    tm::TmQueueConfig qc;
    qc.alpha = alphas[c];
    qc.priority = static_cast<int>(c);
    tm.class_configs.push_back(qc);
  }
  tm.enable_expulsion =
      (s == Scheme::kOccamy || s == Scheme::kOccamyLongestDrop);
  tm.expulsion.policy = (s == Scheme::kOccamyLongestDrop)
                            ? core::DropPolicy::kLongestQueue
                            : core::DropPolicy::kRoundRobin;
}

}  // namespace occamy::exp
