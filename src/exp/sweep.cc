#include "src/exp/sweep.h"

#include <cstdio>
#include <set>

namespace occamy::exp {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string FormatInt(int64_t v) { return std::to_string(v); }

// A knob dimension always contributes exactly one loop iteration; inactive
// (empty) dimensions iterate once over a sentinel that sets nothing.
template <typename T>
size_t DimSize(const std::vector<T>& dim) {
  return dim.empty() ? 1 : dim.size();
}

}  // namespace

size_t GridSize(const SweepSpec& spec) {
  if (spec.scenarios.empty() || spec.bms.empty() || spec.seeds <= 0) return 0;
  return spec.scenarios.size() * spec.bms.size() * DimSize(spec.alphas) *
         DimSize(spec.bg_loads) * DimSize(spec.query_bytes) *
         DimSize(spec.buffer_bytes) * DimSize(spec.bg_flow_bytes) *
         DimSize(spec.burst_bytes) * DimSize(spec.loss_rates) *
         static_cast<size_t>(spec.seeds);
}

std::optional<std::string> ExpandSweep(const SweepSpec& spec,
                                       std::vector<SweepPoint>& out) {
  if (spec.scenarios.empty()) return "sweep needs at least one scenario";
  if (spec.bms.empty()) return "sweep needs at least one BM scheme";
  if (spec.seeds <= 0) return "sweep needs seeds >= 1";
  for (const auto& s : spec.scenarios) {
    const ScenarioInfo* entry = ScenarioByName(s);
    if (entry == nullptr) return "unknown scenario: " + s;
    std::string shards_error = ShardsError(*entry, spec.shards);
    if (!shards_error.empty()) return shards_error;
  }
  for (const auto& b : spec.bms) {
    if (!SchemeByName(b).has_value()) return "unknown BM scheme: " + b;
  }

  out.clear();
  out.reserve(GridSize(spec));

  // Fixed loop nesting = fixed key field order = stable sort order.
  for (const auto& scenario : spec.scenarios) {
    for (const auto& bm : spec.bms) {
      for (size_t ai = 0; ai < DimSize(spec.alphas); ++ai) {
        for (size_t li = 0; li < DimSize(spec.bg_loads); ++li) {
          for (size_t qi = 0; qi < DimSize(spec.query_bytes); ++qi) {
            for (size_t bi = 0; bi < DimSize(spec.buffer_bytes); ++bi) {
              for (size_t fi = 0; fi < DimSize(spec.bg_flow_bytes); ++fi) {
                for (size_t ui = 0; ui < DimSize(spec.burst_bytes); ++ui) {
                 for (size_t ri = 0; ri < DimSize(spec.loss_rates); ++ri) {
                  for (int si = 0; si < spec.seeds; ++si) {
                    SweepPoint p;
                    p.spec.scenario = scenario;
                    p.spec.bm = bm;
                    p.spec.scale = spec.scale;
                    p.spec.duration_ms = spec.duration_ms;
                    p.spec.faults = spec.faults;
                    p.spec.seed = spec.base_seed + static_cast<uint64_t>(si);
                    // Execution knob, not a sweep dimension: results are
                    // byte-identical for any shard count.
                    if (spec.shards > 0) p.spec.shards = spec.shards;
                    if (spec.window_batch > 0) {
                      p.spec.window_batch = spec.window_batch;
                    }
                    p.key_fields.emplace_back("scenario", scenario);
                    p.key_fields.emplace_back("bm", bm);
                    if (!spec.alphas.empty()) {
                      p.spec.alphas = {spec.alphas[ai]};
                      p.key_fields.emplace_back("alpha", FormatDouble(spec.alphas[ai]));
                    }
                    if (!spec.bg_loads.empty()) {
                      p.spec.bg_load = spec.bg_loads[li];
                      p.key_fields.emplace_back("bg_load", FormatDouble(spec.bg_loads[li]));
                    }
                    if (!spec.query_bytes.empty()) {
                      p.spec.query_bytes = spec.query_bytes[qi];
                      p.key_fields.emplace_back("query_bytes", FormatInt(spec.query_bytes[qi]));
                    }
                    if (!spec.buffer_bytes.empty()) {
                      p.spec.buffer_bytes = spec.buffer_bytes[bi];
                      p.key_fields.emplace_back("buffer_bytes", FormatInt(spec.buffer_bytes[bi]));
                    }
                    if (!spec.bg_flow_bytes.empty()) {
                      p.spec.bg_flow_bytes = spec.bg_flow_bytes[fi];
                      p.key_fields.emplace_back("bg_flow_bytes",
                                                FormatInt(spec.bg_flow_bytes[fi]));
                    }
                    if (!spec.burst_bytes.empty()) {
                      p.spec.burst_bytes = spec.burst_bytes[ui];
                      p.key_fields.emplace_back("burst_bytes", FormatInt(spec.burst_bytes[ui]));
                    }
                    if (!spec.loss_rates.empty()) {
                      p.spec.loss_rate = spec.loss_rates[ri];
                      p.key_fields.emplace_back("loss_rate",
                                                FormatDouble(spec.loss_rates[ri]));
                    }
                    for (const auto& [k, v] : p.key_fields) {
                      if (!p.cell_key.empty()) p.cell_key += '|';
                      p.cell_key += k + "=" + v;
                    }
                    p.key_fields.emplace_back("seed", std::to_string(p.spec.seed));
                    p.run_key = p.cell_key + "|seed=" + std::to_string(p.spec.seed);
                    out.push_back(std::move(p));
                  }
                 }
                }
              }
            }
          }
        }
      }
    }
  }

  for (const auto& p : out) {
    std::string range_error = InputRangeError(p.spec);
    if (!range_error.empty()) return range_error;
  }

  // Key fields render doubles at 6 significant digits, so knob values that
  // differ only beyond that would silently share a run key (and merge into
  // one aggregation cell); reject the grid instead.
  std::set<std::string> keys;
  for (const auto& p : out) {
    if (!keys.insert(p.run_key).second) {
      return "duplicate run key (values collide after formatting): " + p.run_key;
    }
  }
  return std::nullopt;
}

}  // namespace occamy::exp
