// ABM — Active Buffer Management (Addanki et al., SIGCOMM 2022).
//
// Non-preemptive baseline used throughout the paper's evaluation. Threshold:
//
//   T_i(t) = alpha_p / n_p(t) * (B - sum_i q_i(t)) * mu_i(t)
//
// where n_p(t) counts the congested queues of priority class p and mu_i(t)
// is the queue's drain rate normalized to its port line rate. A queue latches
// "congested" when its length reaches its threshold and unlatches when it
// falls below half of it (hysteresis, mirroring ABM's stateful count).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/bm/bm_scheme.h"

namespace occamy::bm {

class Abm : public BmScheme {
 public:
  // `mu_floor` prevents zero thresholds for queues that have never drained
  // (newly active queues must be able to claim buffer).
  explicit Abm(double mu_floor = 0.125) : mu_floor_(mu_floor) {}

  std::string_view name() const override { return "ABM"; }

  bool ReadsDrainRate() const override { return true; }

  int64_t Threshold(const TmView& tm, int q) const override {
    EnsureSized(tm);
    const int prio = tm.priority(q);
    const int n_p = std::max(1, congested_count_per_prio_[static_cast<size_t>(prio)]);
    const double mu = std::max(mu_floor_, tm.normalized_drain_rate(q));
    const double t = tm.alpha(q) / static_cast<double>(n_p) *
                     static_cast<double>(tm.free_bytes()) * mu;
    return static_cast<int64_t>(t);
  }

  bool Admit(const TmView& tm, int q, int64_t bytes) override {
    (void)bytes;
    EnsureSized(tm);
    const bool ok = tm.qlen_bytes(q) < Threshold(tm, q);
    UpdateCongested(tm, q);
    return ok;
  }

  void OnDequeue(const TmView& tm, int q, int64_t bytes) override {
    (void)bytes;
    UpdateCongested(tm, q);
  }

  int CongestedCountForTest(int prio) const {
    return congested_count_per_prio_[static_cast<size_t>(prio)];
  }

  // Switch restart: no queue is congested once the buffer was flushed.
  void Reset() override {
    congested_.assign(congested_.size(), false);
    congested_count_per_prio_.assign(congested_count_per_prio_.size(), 0);
  }

 private:
  void EnsureSized(const TmView& tm) const {
    if (congested_.size() != static_cast<size_t>(tm.num_queues())) {
      congested_.assign(static_cast<size_t>(tm.num_queues()), false);
      int max_prio = 0;
      for (int q = 0; q < tm.num_queues(); ++q) max_prio = std::max(max_prio, tm.priority(q));
      congested_count_per_prio_.assign(static_cast<size_t>(max_prio) + 1, 0);
    }
  }

  void UpdateCongested(const TmView& tm, int q) const {
    const int64_t threshold = Threshold(tm, q);
    const int64_t qlen = tm.qlen_bytes(q);
    const bool was = congested_[static_cast<size_t>(q)];
    bool now = was;
    if (!was && qlen >= threshold) now = true;
    if (was && qlen < threshold / 2) now = false;
    if (now != was) {
      congested_[static_cast<size_t>(q)] = now;
      congested_count_per_prio_[static_cast<size_t>(tm.priority(q))] += now ? 1 : -1;
    }
  }

  double mu_floor_;
  mutable std::vector<bool> congested_;
  mutable std::vector<int> congested_count_per_prio_;
};

}  // namespace occamy::bm
