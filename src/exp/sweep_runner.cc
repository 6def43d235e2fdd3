#include "src/exp/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

namespace occamy::exp {

int EffectiveSweepJobs(int jobs, int shards_per_run, unsigned hardware_concurrency) {
  jobs = std::clamp(jobs, 1, 64);
  const int shards = std::max(shards_per_run, 1);
  if (shards > 1 && hardware_concurrency > 0) {
    const int max_jobs =
        std::max(1, static_cast<int>(hardware_concurrency) / shards);
    jobs = std::min(jobs, max_jobs);
  }
  return jobs;
}

std::vector<RunRecord> RunSweep(const std::vector<SweepPoint>& points,
                                const SweepRunOptions& options) {
  std::vector<RunRecord> records(points.size());
  if (points.empty()) return records;

  // A run that is itself sharded brings its own worker threads; cap the
  // sweep pool so jobs x shards fits the machine. The cap is computed from
  // the most-sharded point and applies to the whole pool, which is
  // conservative for mixed grids (one-shard points also run under the
  // reduced job count); a per-point dynamic cap is not worth the scheduler
  // complexity while sweeps that mix shard counts stay rare.
  int shards_per_run = 0;
  for (const auto& p : points) shards_per_run = std::max(shards_per_run, p.spec.shards);
  const int jobs =
      EffectiveSweepJobs(options.jobs, shards_per_run, std::thread::hardware_concurrency());
  if (jobs < std::clamp(options.jobs, 1, 64) && options.warn) {
    options.warn("capping --jobs to " + std::to_string(jobs) + " so jobs x shards (" +
                 std::to_string(shards_per_run) + ") fits " +
                 std::to_string(std::thread::hardware_concurrency()) +
                 " hardware threads");
  }
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex progress_mu;

  const auto worker = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= points.size()) return;
      RunRecord& rec = records[i];
      rec.point = points[i];
      PointResult result = RunPoint(points[i].spec);
      rec.ok = result.ok;
      rec.error = std::move(result.error);
      rec.metrics = std::move(result.metrics);
      const size_t finished = done.fetch_add(1) + 1;
      if (options.progress) {
        const std::lock_guard<std::mutex> lock(progress_mu);
        options.progress(finished, points.size(), rec);
      }
    }
  };

  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }

  std::sort(records.begin(), records.end(),
            [](const RunRecord& a, const RunRecord& b) {
              return a.point.run_key < b.point.run_key;
            });
  return records;
}

}  // namespace occamy::exp
