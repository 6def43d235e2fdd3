#include "src/exp/sinks.h"

#include <algorithm>

#include "src/exp/telemetry.h"
#include "src/util/json.h"

namespace occamy::exp {

namespace {

bool IsBookkeepingMetric(const std::string& key) {
  if (key == "seed" || key == "schema_version") return true;
  // Wall-clock perf telemetry varies run to run and machine to machine;
  // aggregating it would make summary.csv non-reproducible (the determinism
  // contract in sweep_runner.h). It stays per-run in the JSONL stream; the
  // deterministic sim_events metric IS aggregated.
  return TelemetryKeyVolatility(key) == KeyVolatility::kWallClock;
}

stats::Summary* FindMetric(CellSummary& cell, const std::string& key) {
  for (auto& [name, summary] : cell.metrics) {
    if (name == key) return &summary;
  }
  return nullptr;
}

}  // namespace

std::string RecordJson(const RunRecord& record) {
  JsonBuilder json;
  json.Add("run_key", record.point.run_key);
  json.Add("cell_key", record.point.cell_key);
  json.Add("ok", record.ok);
  if (record.ok) {
    record.metrics.AppendTo(json);
  } else {
    json.Add("error", record.error);
  }
  return json.Build();
}

void WriteJsonl(const std::vector<RunRecord>& records, std::ostream& out) {
  for (const auto& rec : records) out << RecordJson(rec) << "\n";
}

std::vector<CellSummary> Aggregate(const std::vector<RunRecord>& records) {
  std::vector<CellSummary> cells;
  for (const auto& rec : records) {
    if (cells.empty() || cells.back().cell_key != rec.point.cell_key) {
      CellSummary cell;
      cell.cell_key = rec.point.cell_key;
      for (const auto& [k, v] : rec.point.key_fields) {
        if (k != "seed") cell.key_fields.emplace_back(k, v);
      }
      cells.push_back(std::move(cell));
    }
    CellSummary& cell = cells.back();
    if (!rec.ok) {
      ++cell.failed;
      continue;
    }
    ++cell.runs;
    // Knob echoes (alpha, query_bytes, ...) are constant within a cell and
    // already appear as key columns; aggregating them would only duplicate
    // the key as <knob>_mean/<knob>_p99.
    const auto is_key_field = [&cell](const std::string& name) {
      for (const auto& [k, v] : cell.key_fields) {
        if (k == name) return true;
      }
      return false;
    };
    for (const auto& entry : rec.metrics.entries()) {
      if (!entry.value.IsNumeric() || IsBookkeepingMetric(entry.key) ||
          is_key_field(entry.key)) {
        continue;
      }
      stats::Summary* summary = FindMetric(cell, entry.key);
      if (summary == nullptr) {
        cell.metrics.emplace_back(entry.key, stats::Summary());
        summary = &cell.metrics.back().second;
      }
      summary->Add(entry.value.Number());
    }
  }
  return cells;
}

void WriteSummaryCsv(const std::vector<CellSummary>& cells, std::ostream& out) {
  if (cells.empty()) return;

  // Header: key fields from the first cell (identical across cells of one
  // sweep by construction), then the union of metric names.
  std::vector<std::string> metric_names;
  for (const auto& cell : cells) {
    for (const auto& [name, summary] : cell.metrics) {
      if (std::find(metric_names.begin(), metric_names.end(), name) ==
          metric_names.end()) {
        metric_names.push_back(name);
      }
    }
  }
  for (const auto& [k, v] : cells.front().key_fields) out << k << ",";
  out << "runs,failed";
  for (const auto& name : metric_names) out << "," << name << "_mean," << name << "_p99";
  out << "\n";

  for (const auto& cell : cells) {
    for (const auto& [k, v] : cell.key_fields) out << v << ",";
    out << cell.runs << "," << cell.failed;
    for (const auto& name : metric_names) {
      const stats::Summary* summary = nullptr;
      for (const auto& [n, s] : cell.metrics) {
        if (n == name) {
          summary = &s;
          break;
        }
      }
      if (summary == nullptr || summary->Empty()) {
        out << ",,";
      } else {
        out << "," << JsonNumber(summary->Mean()) << "," << JsonNumber(summary->P99());
      }
    }
    out << "\n";
  }
}

}  // namespace occamy::exp
