// Flow/query completion records and derived metrics (FCT, QCT, slowdown).
//
// The paper reports: average / p99 QCT of query (incast) traffic, average /
// p99 FCT of background traffic (overall and small flows < 100 KB), and
// "slowdown" — actual completion time divided by the ideal completion time
// of the same transfer on an unloaded network.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/stats/summary.h"
#include "src/util/time.h"

namespace occamy::stats {

struct CompletionRecord {
  uint64_t id = 0;
  int64_t bytes = 0;
  Time start = 0;
  Time end = 0;
  Time ideal = 0;  // ideal completion time on an unloaded network
  int traffic_class = 0;

  Time Duration() const { return end - start; }
  double Slowdown() const {
    if (ideal <= 0) return 1.0;
    return static_cast<double>(Duration()) / static_cast<double>(ideal);
  }
};

// Collects completion records and produces filtered summaries.
class CompletionCollector {
 public:
  void Add(const CompletionRecord& rec) { records_.push_back(rec); }

  size_t Count() const { return records_.size(); }
  const std::vector<CompletionRecord>& records() const { return records_; }

  using Filter = std::function<bool(const CompletionRecord&)>;

  // Completion times in milliseconds for records matching `filter` (all if null).
  Summary DurationsMs(const Filter& filter = nullptr) const {
    Summary s;
    for (const auto& r : records_) {
      if (!filter || filter(r)) s.Add(ToMilliseconds(r.Duration()));
    }
    return s;
  }

  Summary Slowdowns(const Filter& filter = nullptr) const {
    Summary s;
    for (const auto& r : records_) {
      if (!filter || filter(r)) s.Add(r.Slowdown());
    }
    return s;
  }

  static Filter SmallFlows(int64_t max_bytes = 100 * 1000) {
    return [max_bytes](const CompletionRecord& r) { return r.bytes < max_bytes; };
  }

  // Puts the records in (end, id) order, the order every run reports them
  // in: sums and percentiles over them then never depend on which shard
  // or event produced a record first.
  void SortByEnd() {
    std::sort(records_.begin(), records_.end(),
              [](const CompletionRecord& a, const CompletionRecord& b) {
                return a.end != b.end ? a.end < b.end : a.id < b.id;
              });
  }

 private:
  std::vector<CompletionRecord> records_;
};

}  // namespace occamy::stats
