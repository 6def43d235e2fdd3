#include "src/tm/traffic_manager.h"

#include <algorithm>

#include "src/obs/trace.h"
#include "src/sim/shard_checks.h"
#include "src/util/check.h"
#include "src/util/logging.h"

namespace occamy::tm {

namespace {

Bandwidth SumRates(const std::vector<Bandwidth>& rates) {
  Bandwidth total;
  for (Bandwidth r : rates) total = total + r;
  return total;
}

}  // namespace

TmPartition::TmPartition(sim::Simulator* sim, TmConfig config,
                         std::unique_ptr<bm::BmScheme> scheme)
    : sim_(sim),
      config_(std::move(config)),
      scheme_(std::move(scheme)),
      shared_(config_.buffer_bytes,
              static_cast<int>(config_.port_rates.size()) * config_.queues_per_port,
              config_.cell_bytes),
      memory_(SumRates(config_.port_rates), config_.cell_bytes, config_.memory_burst_cells) {
  OCCAMY_CHECK(!config_.port_rates.empty());
  OCCAMY_CHECK(config_.queues_per_port > 0);
  OCCAMY_CHECK(scheme_ != nullptr);

  // Broadcast per-class configs to every port's queues.
  std::vector<TmQueueConfig> class_cfg = config_.class_configs;
  class_cfg.resize(static_cast<size_t>(config_.queues_per_port));
  const int num_ports = static_cast<int>(config_.port_rates.size());
  queue_configs_.reserve(static_cast<size_t>(num_ports * config_.queues_per_port));
  for (int p = 0; p < num_ports; ++p) {
    for (int c = 0; c < config_.queues_per_port; ++c) {
      queue_configs_.push_back(class_cfg[static_cast<size_t>(c)]);
    }
  }

  schedulers_.reserve(static_cast<size_t>(num_ports));
  for (int p = 0; p < num_ports; ++p) {
    schedulers_.push_back(MakeScheduler(config_.scheduler, config_.drr_quantum));
  }

  drain_rates_.assign(queue_configs_.size(), stats::EwmaRateEstimator(Microseconds(100)));
  queue_delay_hist_.resize(queue_configs_.size());
  queue_drops_.assign(queue_configs_.size(), 0);

  if (config_.enable_expulsion) {
    // Incremental bitmap refresh is only exact for DT-family thresholds
    // (threshold_key == free bytes); other schemes fall back to a full
    // rescan per expulsion step.
    core::ExpulsionConfig expulsion = config_.expulsion;
    expulsion.incremental_refresh = scheme_->ThresholdIsFreeBytesMonotone();
    engine_ = std::make_unique<core::ExpulsionEngine>(sim_, this, &memory_, expulsion);
  }

  if (config_.stats_sync_interval > 0) {
    snapshot_qlens_.assign(queue_configs_.size(), 0);
    SyncSnapshot();
  }
}

const bm::TmView& TmPartition::AdmissionView() const {
  if (config_.stats_sync_interval > 0) return snapshot_view_;
  return *this;
}

void TmPartition::SyncSnapshot() {
  for (int q = 0; q < shared_.num_queues(); ++q) {
    snapshot_qlens_[static_cast<size_t>(q)] = shared_.qlen_bytes(q);
  }
  snapshot_occupancy_ = shared_.occupancy_bytes();
  last_sync_ = sim_->now();
  sim_->After(config_.stats_sync_interval, [this] { SyncSnapshot(); });
}

TmPartition::EnqueueResult TmPartition::Enqueue(int port, Packet pkt) {
  OCCAMY_ASSERT_SHARD(*sim_);  // the switch's shard owns this partition
  OCCAMY_CHECK(port >= 0 && port < num_ports());
  const int cls = std::min<int>(pkt.traffic_class, config_.queues_per_port - 1);
  const int q = QueueIndex(port, cls);
  const int64_t cell_bytes_needed = CellBytesFor(pkt.size_bytes, config_.cell_bytes);

  // Policy admission (threshold check); with SYNC-packet statistics the
  // scheme sees queue lengths that are up to one sync interval old (§5.2).
  if (!scheme_->Admit(AdmissionView(), q, cell_bytes_needed)) {
    ++stats_.admission_drops;
    scheme_->OnAdmissionDrop(*this, q, cell_bytes_needed);
    RecordDrop(pkt, DropReason::kAdmission, q);
    return {};
  }

  // Physical fit. Preemptive schemes (Pushout) may evict to make room.
  while (!shared_.Fits(pkt.size_bytes)) {
    const std::optional<int> victim = scheme_->EvictVictim(*this, q);
    if (!victim.has_value()) {
      ++stats_.buffer_full_drops;
      RecordDrop(pkt, DropReason::kBufferFull, q);
      return {};
    }
    OCCAMY_CHECK(!shared_.queue(*victim).Empty()) << "pushout victim is empty";
    const buffer::PacketDescriptor evicted = shared_.DequeueHead(*victim);
    ++stats_.pushout_evictions;
    scheme_->OnDequeue(*this, *victim, evicted.cell_count * config_.cell_bytes);
    if (engine_ != nullptr) engine_->KickShrink(*victim);
    RecordDrop(evicted.packet, DropReason::kPushoutEvicted, *victim);
  }

  // ECN marking at enqueue (DCTCP-style instantaneous queue length).
  EnqueueResult result;
  result.accepted = true;
  if (config_.ecn_threshold_bytes > 0 && pkt.ecn_capable && !pkt.IsAck()) {
    const int64_t qlen_after = shared_.qlen_bytes(q) + cell_bytes_needed;
    if (qlen_after > config_.ecn_threshold_bytes) {
      pkt.ce = true;
      result.ce_marked = true;
    }
  }

  OCCAMY_CHECK(shared_.Enqueue(q, pkt, sim_->now()));
  ++stats_.enqueued_packets;
  stats_.enqueued_bytes += pkt.size_bytes;
  scheme_->OnEnqueue(*this, q, cell_bytes_needed);

  // Wake Occamy's reactive component: this enqueue may have pushed some
  // queue above the (now lower) threshold.
  if (engine_ != nullptr) engine_->KickGrowth(q);
  return result;
}

bool TmPartition::PortHasTraffic(int port) const {
  for (int c = 0; c < config_.queues_per_port; ++c) {
    if (!shared_.queue(QueueIndex(port, c)).Empty()) return true;
  }
  return false;
}

std::optional<Packet> TmPartition::DequeueForPort(int port) {
  OCCAMY_ASSERT_SHARD(*sim_);
  OCCAMY_CHECK(port >= 0 && port < num_ports());
  PortView view(this, port);
  const int cls = schedulers_[static_cast<size_t>(port)]->Pick(view);
  if (cls < 0) return std::nullopt;
  const int q = QueueIndex(port, cls);

  buffer::PacketDescriptor pd = shared_.DequeueHead(q);
  const int64_t bytes = static_cast<int64_t>(pd.cell_count) * config_.cell_bytes;
  const Time queueing_delay = sim_->now() - pd.enqueue_time;
  queue_delay_hist_[static_cast<size_t>(q)].Record(queueing_delay);
  OCCAMY_TRACE_INSTANT_ARG("tm.dequeue", "delay_ns", ToNanoseconds(queueing_delay));

  // The output scheduler always wins the memory port: force-consume tokens
  // (the balance may go negative; expulsion then stalls).
  memory_.ForceConsume(pd.cell_count, sim_->now());

  ++stats_.dequeued_packets;
  stats_.dequeued_bytes += pd.packet.size_bytes;
  drain_rates_[static_cast<size_t>(q)].Update(bytes, sim_->now());
  scheme_->OnDequeue(*this, q, bytes);
  if (engine_ != nullptr) engine_->KickShrink(q);
  return pd.packet;
}

double TmPartition::normalized_drain_rate(int q) const {
  const Bandwidth port_rate = config_.port_rates[static_cast<size_t>(PortOfQueue(q))];
  if (port_rate.IsZero()) return 0.0;
  const double rate = drain_rates_[static_cast<size_t>(q)].BytesPerSec(sim_->now());
  return std::min(1.0, rate / port_rate.bytes_per_sec());
}

void TmPartition::HeadDropOnePacket(int q) {
  // Expulsion kicks run on the engine's simulator == this partition's.
  OCCAMY_ASSERT_SHARD(*sim_);
  OCCAMY_CHECK(!shared_.queue(q).Empty());
  const buffer::PacketDescriptor pd = shared_.DequeueHead(q);
  scheme_->OnDequeue(*this, q, static_cast<int64_t>(pd.cell_count) * config_.cell_bytes);
  RecordDrop(pd.packet, DropReason::kExpelled, q);
}

int64_t TmPartition::RestartFlush() {
  OCCAMY_ASSERT_SHARD(*sim_);
  int64_t flushed_bytes = 0;
  for (int q = 0; q < shared_.num_queues(); ++q) {
    while (!shared_.queue(q).Empty()) {
      const buffer::PacketDescriptor pd = shared_.DequeueHead(q);
      flushed_bytes += pd.packet.size_bytes;
      ++stats_.restart_flush_drops;
      RecordDrop(pd.packet, DropReason::kRestartFlushed, q);
    }
  }
  stats_.restart_flush_bytes += flushed_bytes;
  // Power-on state: the scheme re-learns from an empty buffer and the
  // engine rescans once traffic kicks it again. No per-flush OnDequeue —
  // whatever the scheme accumulated is being reset anyway.
  scheme_->Reset();
  if (engine_ != nullptr) engine_->Reset();
  return flushed_bytes;
}

TmStats& TmPartition::stats() {
  if (engine_ != nullptr) {
    stats_.expelled_packets = engine_->expelled_packets();
    stats_.expelled_bytes = engine_->expelled_bytes();
  }
  return stats_;
}

void TmPartition::RecordDrop(const Packet& pkt, DropReason reason, int q) {
  ++queue_drops_[static_cast<size_t>(q)];
  OCCAMY_TRACE_INSTANT_ARG("tm.drop", "reason", static_cast<int>(reason));
  // Fig. 7 metrics: utilization sampled at drop events. Expulsions are
  // deliberate reclamation, not congestion losses, so they are excluded.
  if (reason == DropReason::kAdmission || reason == DropReason::kBufferFull) {
    const double buffer_util =
        static_cast<double>(shared_.occupancy_bytes()) / static_cast<double>(shared_.buffer_bytes());
    stats_.buffer_util_on_drop.Add(buffer_util * 100.0);
    stats_.membw_util_on_drop.Add(memory_.Utilization(sim_->now()) * 100.0);
  }
  if (drop_hook_) drop_hook_(pkt, reason);
}

}  // namespace occamy::tm
