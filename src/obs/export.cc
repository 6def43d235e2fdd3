#include "src/obs/export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace occamy::obs {

namespace {

// Names are static literals from our own instrumentation, but escape the
// JSON-significant characters anyway so a future name can't corrupt output.
void AppendJsonString(const char* s, std::string& out) {
  out.push_back('"');
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void AppendMicros(uint64_t ns, std::string& out) {
  // Microseconds with ns precision: Chrome's ts/dur unit is us.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out.append(buf);
}

}  // namespace

void WriteChromeTrace(const std::vector<TraceEvent>& events, int shards,
                      std::ostream& out) {
  const uint64_t base_ns = events.empty() ? 0 : events.front().ts_ns;
  std::string buf;
  buf.reserve(256);
  out << "{\"traceEvents\":[\n";
  out << R"({"name":"process_name","ph":"M","pid":0,"tid":0,)"
      << R"("args":{"name":"occamy_sim"}})";
  for (int s = 0; s < shards; ++s) {
    out << ",\n"
        << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << s
        << R"(,"args":{"name":"shard )" << s << "\"}}";
  }
  for (const TraceEvent& ev : events) {
    buf.clear();
    buf.append(",\n{\"name\":");
    AppendJsonString(ev.name != nullptr ? ev.name : "?", buf);
    buf.append(",\"ph\":\"");
    buf.push_back(ev.phase);
    buf.append("\",\"pid\":0,\"tid\":");
    buf.append(std::to_string(ev.shard));
    buf.append(",\"ts\":");
    AppendMicros(ev.ts_ns - base_ns, buf);
    if (ev.phase == 'X') {
      buf.append(",\"dur\":");
      AppendMicros(ev.dur_ns, buf);
    } else {
      buf.append(",\"s\":\"t\"");  // instant scope: thread
    }
    if (ev.arg_name != nullptr) {
      buf.append(",\"args\":{");
      AppendJsonString(ev.arg_name, buf);
      buf.push_back(':');
      buf.append(std::to_string(ev.arg));
      buf.push_back('}');
    }
    buf.push_back('}');
    out << buf;
  }
  out << "\n]}\n";
}

ProfileReport BuildProfileReport(const std::vector<TraceEvent>& events, int shards,
                                 uint64_t trace_dropped) {
  ProfileReport report;
  report.trace_dropped = trace_dropped;
  report.shards.assign(shards > 0 ? static_cast<size_t>(shards) : 1, ProfileShard{});

  uint64_t min_ts = UINT64_MAX;
  uint64_t max_end = 0;
  for (const TraceEvent& ev : events) {
    const auto s = static_cast<size_t>(ev.shard);
    if (s >= report.shards.size() || ev.name == nullptr) continue;
    min_ts = std::min(min_ts, ev.ts_ns);
    max_end = std::max(max_end, ev.ts_ns + ev.dur_ns);
    ProfileShard& shard = report.shards[s];
    if (std::strcmp(ev.name, kSpanWindowExecute) == 0) {
      shard.busy_ns += ev.dur_ns;
      ++shard.windows;
    } else if (std::strcmp(ev.name, kSpanBarrierPlan) == 0 ||
               std::strcmp(ev.name, kSpanBarrierWindow) == 0) {
      shard.barrier_ns += ev.dur_ns;
      // Only the plan leader's span carries the batch_windows arg — one
      // annotated span per barrier round, so summing counts each batch once.
      if (std::strcmp(ev.name, kSpanBarrierPlan) == 0 && ev.arg_name != nullptr &&
          std::strcmp(ev.arg_name, "batch_windows") == 0 && ev.arg > 0) {
        ++report.plan_rounds;
        report.planned_windows += static_cast<uint64_t>(ev.arg);
        report.max_batch = std::max(report.max_batch, static_cast<uint64_t>(ev.arg));
      }
    } else if (std::strcmp(ev.name, kSpanMailboxDrain) == 0) {
      shard.drain_ns += ev.dur_ns;
    } else if (std::strcmp(ev.name, kSpanRunCore) == 0) {
      const auto batch = ev.arg > 0 ? static_cast<uint64_t>(ev.arg) : 0;
      shard.events += batch;
      // Density bucket: 0 -> [empty], else floor(log2(batch)) + 1.
      size_t bucket = 0;
      for (uint64_t b = batch; b > 0; b >>= 1) ++bucket;
      if (report.density.size() <= bucket) report.density.resize(bucket + 1, 0);
      ++report.density[bucket];
    }
  }

  report.wall_ns = (min_ts == UINT64_MAX) ? 0 : max_end - min_ts;
  uint64_t busy = 0, barrier = 0, drain = 0;
  for (const ProfileShard& shard : report.shards) {
    busy += shard.busy_ns;
    barrier += shard.barrier_ns;
    drain += shard.drain_ns;
  }
  const uint64_t accounted = busy + barrier + drain;
  report.barrier_overhead_frac =
      accounted > 0 ? static_cast<double>(barrier) / static_cast<double>(accounted) : 0.0;
  return report;
}

std::string FormatProfileReport(const ProfileReport& report) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "profile: %zu shard(s), recorded wall %.3f ms, trace events dropped: %" PRIu64
                "\n",
                report.shards.size(), static_cast<double>(report.wall_ns) / 1e6,
                report.trace_dropped);
  out.append(line);
  out.append(
      "shard     busy_ms  barrier_ms   drain_ms      events  windows   util%\n");
  for (size_t s = 0; s < report.shards.size(); ++s) {
    const ProfileShard& shard = report.shards[s];
    // A shard with zero accounted worker time (it recorded nothing — e.g.
    // a trace window that closed before the shard ran) renders as explicit
    // zeros with a marker rather than a ratio over nothing.
    const uint64_t accounted = shard.busy_ns + shard.barrier_ns + shard.drain_ns;
    const double util =
        report.wall_ns > 0 && accounted > 0
            ? 100.0 * static_cast<double>(shard.busy_ns) / static_cast<double>(report.wall_ns)
            : 0.0;
    std::snprintf(line, sizeof(line),
                  "%5zu  %10.3f  %10.3f  %9.3f  %10" PRIu64 "  %7" PRIu64 "  %6.1f%s\n", s,
                  static_cast<double>(shard.busy_ns) / 1e6,
                  static_cast<double>(shard.barrier_ns) / 1e6,
                  static_cast<double>(shard.drain_ns) / 1e6, shard.events, shard.windows,
                  util, accounted == 0 ? "  (no-samples)" : "");
    out.append(line);
  }
  uint64_t total_accounted = 0;
  for (const ProfileShard& shard : report.shards) {
    total_accounted += shard.busy_ns + shard.barrier_ns + shard.drain_ns;
  }
  std::snprintf(line, sizeof(line),
                "barrier overhead: %.1f%% of accounted worker time%s\n",
                100.0 * report.barrier_overhead_frac,
                total_accounted == 0 ? " (no-samples)" : "");
  out.append(line);
  if (report.plan_rounds > 0) {
    std::snprintf(line, sizeof(line),
                  "window batching: %" PRIu64 " plan rounds covering %" PRIu64
                  " windows (avg batch %.2f, max %" PRIu64 ")\n",
                  report.plan_rounds, report.planned_windows,
                  static_cast<double>(report.planned_windows) /
                      static_cast<double>(report.plan_rounds),
                  report.max_batch);
    out.append(line);
  }
  out.append("window event density (events per run.core batch):\n");
  for (size_t b = 0; b < report.density.size(); ++b) {
    if (report.density[b] == 0) continue;
    const uint64_t low = b == 0 ? 0 : (uint64_t{1} << (b - 1));
    const uint64_t high = b == 0 ? 0 : (uint64_t{1} << b) - 1;
    if (b == 0) {
      std::snprintf(line, sizeof(line), "  [empty]            %10" PRIu64 "\n",
                    report.density[b]);
    } else {
      std::snprintf(line, sizeof(line), "  [%8" PRIu64 ", %8" PRIu64 "]  %10" PRIu64 "\n",
                    low, high, report.density[b]);
    }
    out.append(line);
  }
  if (report.density.empty()) out.append("  (no run.core spans recorded)\n");
  return out;
}

}  // namespace occamy::obs
