// Traffic-manager partition: one shared-buffer domain of a switch chip.
//
// Composes the shared packet buffer (src/buffer), a BM scheme (src/bm or
// Occamy from src/core), ECN marking, per-port egress schedulers, the
// memory-bandwidth model, and (for Occamy) the expulsion engine. Real chips
// such as Broadcom Tomahawk split their buffer into partitions of 8 ports
// (paper §6.4); a switch owns one or more TmPartitions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/bm/bm_scheme.h"
#include "src/bm/tm_view.h"
#include "src/buffer/shared_buffer.h"
#include "src/core/expulsion_engine.h"
#include "src/core/memory_bandwidth.h"
#include "src/obs/counters.h"
#include "src/sim/simulator.h"
#include "src/stats/cdf.h"
#include "src/stats/rate_estimator.h"
#include "src/tm/scheduler.h"
#include "src/util/bandwidth.h"

namespace occamy::tm {

enum class DropReason {
  kAdmission,       // rejected by the BM scheme's threshold
  kBufferFull,      // physically out of cells
  kExpelled,        // head-dropped by Occamy's expulsion engine
  kPushoutEvicted,  // evicted by Pushout to make room for an arrival
  kRestartFlushed   // flushed by a switch restart (fault injection)
};

struct TmQueueConfig {
  double alpha = 1.0;  // DT/ABM/Occamy control parameter for this queue
  int priority = 0;    // scheduling/ABM priority class (0 = highest)
};

struct TmConfig {
  int64_t buffer_bytes = 4 * 1000 * 1000;
  int cell_bytes = kDefaultCellBytes;
  int queues_per_port = 1;
  std::vector<Bandwidth> port_rates;  // one entry per local port

  // Per-class queue configuration, broadcast to every port
  // (size == queues_per_port; default-filled if empty).
  std::vector<TmQueueConfig> class_configs;

  // ECN: mark CE on enqueue when the queue length exceeds this (0 = off).
  int64_t ecn_threshold_bytes = 0;

  SchedulerKind scheduler = SchedulerKind::kFifo;
  int64_t drr_quantum = 3000;

  // Occamy's reactive component. Enable together with an Occamy/DT scheme.
  bool enable_expulsion = false;
  core::ExpulsionConfig expulsion;
  double memory_burst_cells = 256.0;

  // P4-prototype fidelity (paper §5.2): on Tofino the ingress admission
  // reads queue lengths synchronized from the egress pipeline by
  // recirculated SYNC packets, so decisions use statistics that are up to
  // one sync interval stale. 0 = fresh statistics (the ASIC design).
  Time stats_sync_interval = 0;
};

struct TmStats {
  int64_t enqueued_packets = 0;
  int64_t enqueued_bytes = 0;
  int64_t dequeued_packets = 0;
  int64_t dequeued_bytes = 0;
  int64_t admission_drops = 0;
  int64_t buffer_full_drops = 0;
  int64_t pushout_evictions = 0;
  // Packets (and their bytes) flushed by a switch restart (fault injection).
  int64_t restart_flush_drops = 0;
  int64_t restart_flush_bytes = 0;
  // Expelled counters live in the engine; mirrored here on read.
  int64_t expelled_packets = 0;
  int64_t expelled_bytes = 0;

  // Buffer/memory-bandwidth utilization sampled at drop events (Fig. 7).
  stats::EmpiricalCdf buffer_util_on_drop;
  stats::EmpiricalCdf membw_util_on_drop;

  int64_t TotalDrops() const {
    return admission_drops + buffer_full_drops + pushout_evictions + restart_flush_drops +
           expelled_packets;
  }
};

class TmPartition final : public bm::TmView, public core::ExpulsionTarget {
 public:
  TmPartition(sim::Simulator* sim, TmConfig config, std::unique_ptr<bm::BmScheme> scheme);

  TmPartition(const TmPartition&) = delete;
  TmPartition& operator=(const TmPartition&) = delete;

  // ---- Ingress ----
  struct EnqueueResult {
    bool accepted = false;
    bool ce_marked = false;
  };

  // Admission + enqueue of `pkt` for local egress port `port`, class = the
  // packet's traffic_class (clamped to queues_per_port - 1).
  EnqueueResult Enqueue(int port, Packet pkt);

  // ---- Egress (driven by the switch's per-port TX machinery) ----
  bool PortHasTraffic(int port) const;
  // Scheduler-selected dequeue for `port`; consumes memory bandwidth.
  std::optional<Packet> DequeueForPort(int port);

  // ---- Introspection ----
  int num_ports() const { return static_cast<int>(config_.port_rates.size()); }
  int queues_per_port() const { return config_.queues_per_port; }
  int QueueIndex(int port, int cls) const { return port * config_.queues_per_port + cls; }
  const TmConfig& config() const { return config_; }
  bm::BmScheme& scheme() { return *scheme_; }
  core::MemoryBandwidthModel& memory() { return memory_; }
  const core::ExpulsionEngine* expulsion_engine() const { return engine_.get(); }
  // Mutable engine access for fault injection (control-plane freeze/delay);
  // nullptr when expulsion is disabled. Mutations must run on this
  // partition's shard.
  core::ExpulsionEngine* mutable_expulsion_engine() { return engine_.get(); }

  // Switch restart (fault injection): head-drops every buffered packet
  // (counted as restart-flush drops/bytes), then resets BM-scheme and
  // expulsion-engine state to power-on defaults. In-flight TX already left
  // the buffer and is unaffected. Must run on this partition's shard.
  // Returns the flushed bytes.
  int64_t RestartFlush();

  // Current BM threshold for queue q (for tracing / benches).
  int64_t ThresholdBytes(int q) const { return scheme_->Threshold(*this, q); }

  TmStats& stats();
  const buffer::SharedBuffer& shared_buffer() const { return shared_; }

  // ---- Per-queue observability (schema v6 counter registry) ----
  // Queueing delay of every dequeued packet (sim time from the descriptor's
  // enqueue stamp to dequeue), and drops attributed to the queue they hit.
  // Exact integer folds, so cross-partition aggregation is byte-identical
  // for any shard count.
  const obs::DelayHistogram& queue_delay_hist(int q) const {
    return queue_delay_hist_[static_cast<size_t>(q)];
  }
  uint64_t queue_drops(int q) const { return queue_drops_[static_cast<size_t>(q)]; }
  // Folds every queue of this partition into `out` (delay percentiles,
  // worst-queue stats); the runners call this per partition after the run.
  void AccumulateObs(obs::BufferObs& out) const {
    for (size_t q = 0; q < queue_delay_hist_.size(); ++q) {
      out.AddQueue(queue_delay_hist_[q], queue_drops_[q]);
    }
  }

  // Optional per-drop callback (packet, reason) for workload-level loss
  // accounting; invoked for every lost packet including expulsions.
  void set_drop_hook(std::function<void(const Packet&, DropReason)> hook) {
    drop_hook_ = std::move(hook);
  }

  // ---- bm::TmView ----
  Time now() const override { return sim_->now(); }
  int64_t buffer_bytes() const override { return shared_.buffer_bytes(); }
  int64_t occupancy_bytes() const override { return shared_.occupancy_bytes(); }
  int num_queues() const override { return shared_.num_queues(); }
  int64_t qlen_bytes(int q) const override { return shared_.qlen_bytes(q); }
  double alpha(int q) const override { return queue_configs_[static_cast<size_t>(q)].alpha; }
  int priority(int q) const override { return queue_configs_[static_cast<size_t>(q)].priority; }
  double normalized_drain_rate(int q) const override;

  // ---- core::ExpulsionTarget ----
  int64_t expulsion_threshold(int q) const override { return scheme_->Threshold(*this, q); }
  // Occamy's expulsion threshold is its DT threshold alpha_q * free, so the
  // free buffer bytes capture every shared input of the threshold bank.
  int64_t threshold_key() const override { return shared_.free_bytes(); }
  int64_t head_cells(int q) const override {
    const auto& queue = shared_.queue(q);
    return queue.Empty() ? 0 : queue.Head().cell_count;
  }
  void HeadDropOnePacket(int q) override;

  // Age of the statistics the admission path currently sees (0 if fresh).
  Time AdmissionStatsAgeForTest() const {
    return config_.stats_sync_interval > 0 ? sim_->now() - last_sync_ : 0;
  }

 private:
  // TmView over the last SYNC-packet snapshot (stale statistics), used by
  // the admission path when stats_sync_interval > 0.
  class SnapshotView final : public bm::TmView {
   public:
    explicit SnapshotView(const TmPartition* tm) : tm_(tm) {}
    Time now() const override { return tm_->sim_->now(); }
    int64_t buffer_bytes() const override { return tm_->shared_.buffer_bytes(); }
    int64_t occupancy_bytes() const override { return tm_->snapshot_occupancy_; }
    int num_queues() const override { return tm_->shared_.num_queues(); }
    int64_t qlen_bytes(int q) const override {
      return tm_->snapshot_qlens_[static_cast<size_t>(q)];
    }
    double alpha(int q) const override { return tm_->alpha(q); }
    int priority(int q) const override { return tm_->priority(q); }
    double normalized_drain_rate(int q) const override {
      return tm_->normalized_drain_rate(q);
    }

   private:
    const TmPartition* tm_;
  };

  // SchedulerView over one port's queues.
  class PortView final : public SchedulerView {
   public:
    PortView(const TmPartition* tm, int port) : tm_(tm), port_(port) {}
    int num_queues() const override { return tm_->config_.queues_per_port; }
    bool queue_empty(int q) const override {
      return tm_->shared_.queue(tm_->QueueIndex(port_, q)).Empty();
    }
    int64_t head_bytes(int q) const override {
      const auto& queue = tm_->shared_.queue(tm_->QueueIndex(port_, q));
      return queue.Empty() ? 0 : queue.Head().packet.size_bytes;
    }

   private:
    const TmPartition* tm_;
    int port_;
  };

  void RecordDrop(const Packet& pkt, DropReason reason, int q);
  int PortOfQueue(int q) const { return q / config_.queues_per_port; }
  // The view the admission path consults (snapshot when sync is enabled).
  const bm::TmView& AdmissionView() const;
  void SyncSnapshot();

  sim::Simulator* sim_;
  TmConfig config_;
  std::unique_ptr<bm::BmScheme> scheme_;
  buffer::SharedBuffer shared_;
  std::vector<TmQueueConfig> queue_configs_;            // per global queue
  std::vector<std::unique_ptr<Scheduler>> schedulers_;  // per port
  core::MemoryBandwidthModel memory_;
  std::unique_ptr<core::ExpulsionEngine> engine_;
  // Per queue; empty unless the scheme ReadsDrainRate().
  mutable std::vector<stats::EwmaRateEstimator> drain_rates_;
  std::vector<obs::DelayHistogram> queue_delay_hist_;  // per queue
  std::vector<uint64_t> queue_drops_;                  // per queue
  TmStats stats_;
  std::function<void(const Packet&, DropReason)> drop_hook_;

  // Stale-statistics (SYNC packet) state.
  SnapshotView snapshot_view_{this};
  std::vector<int64_t> snapshot_qlens_;
  int64_t snapshot_occupancy_ = 0;
  Time last_sync_ = 0;
};

}  // namespace occamy::tm
