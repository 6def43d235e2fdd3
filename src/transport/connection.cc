#include "src/transport/connection.h"

#include <algorithm>
#include <cmath>

#include "src/obs/trace.h"
#include "src/sim/shard_checks.h"
#include "src/transport/flow_manager.h"
#include "src/util/check.h"

namespace occamy::transport {

namespace {
constexpr int64_t kMinCwndSegments = 1;
}  // namespace

Connection::Connection(FlowManager* manager, FlowParams params)
    : manager_(manager),
      params_(params),
      sim_(&manager->network().sim_of(params_.src)) {
  OCCAMY_CHECK(params_.size_bytes > 0);
  const auto& cfg = manager_->config();
  cwnd_ = cfg.init_cwnd_segments * cfg.mss;
  ssthresh_ = int64_t{1} << 40;  // effectively infinite until the first loss
  rto_ = cfg.initial_rto;
  dctcp_window_end_ = 0;
}

void Connection::Start() {
  OCCAMY_ASSERT_SHARD(*sim_);  // sender half lives on the source host's shard
  OCCAMY_CHECK(!started_);
  started_ = true;
  dctcp_window_end_ = cwnd_;
  SendAvailable();
}

// ---------------- sender: transmission ----------------

void Connection::SendAvailable() {
  const auto& cfg = manager_->config();
  while (snd_nxt_ < params_.size_bytes && snd_nxt_ - snd_una_ < cwnd_) {
    SendSegment(snd_nxt_);
    snd_nxt_ += std::min<int64_t>(cfg.mss, params_.size_bytes - snd_nxt_);
  }
  if (snd_una_ < params_.size_bytes) ArmRtoTimer();
}

void Connection::SendSegment(int64_t seq) {
  const auto& cfg = manager_->config();
  const int64_t payload = std::min<int64_t>(cfg.mss, params_.size_bytes - seq);
  OCCAMY_CHECK(payload > 0);
  Packet pkt;
  pkt.kind = PacketKind::kData;
  pkt.flow_id = params_.id;
  pkt.src = params_.src;
  pkt.dst = params_.dst;
  pkt.traffic_class = params_.traffic_class;
  pkt.ecn_capable = params_.ecn_capable;
  pkt.seq = static_cast<uint64_t>(seq);
  pkt.payload = static_cast<uint32_t>(payload);
  pkt.size_bytes = static_cast<uint32_t>(payload + cfg.header_bytes);
  pkt.ts_sent = sim_->now();
  manager_->mutable_counters().data_packets_sent++;
  if (seq < max_sent_) manager_->mutable_counters().retransmitted_packets++;
  max_sent_ = std::max(max_sent_, seq + payload);
  manager_->host(params_.src).Send(std::move(pkt));
}

void Connection::ArmRtoTimer() {
  rto_timer_.Cancel();
  const auto& cfg = manager_->config();
  Time timeout = rto_ << rto_backoff_;
  timeout = std::min(timeout, cfg.max_rto);
  last_rto_timeout_ = timeout;
  rto_timer_ = sim_->After(timeout, [this] { OnRtoTimeout(); });
}

void Connection::OnRtoTimeout() {
  OCCAMY_ASSERT_SHARD(*sim_);  // RTO timer is sender state
  if (completed_) return;
  const auto& cfg = manager_->config();
  manager_->mutable_counters().rtos++;
  ++rto_count_;
  OCCAMY_TRACE_INSTANT_ARG("conn.rto", "flow", params_.id);
  rto_backoff_ = std::min(rto_backoff_ + 1, 8);
  ssthresh_ = std::max<int64_t>(cwnd_ / 2, 2 * cfg.mss);
  cwnd_ = kMinCwndSegments * cfg.mss;
  dup_acks_ = 0;
  in_recovery_ = false;
  snd_nxt_ = snd_una_;  // go-back-N from the first unacked byte
  if (params_.cc == CcAlgorithm::kCubic) CubicOnLoss();
  SendAvailable();
}

// ---------------- sender: ACK processing ----------------

void Connection::HandleAck(const Packet& ack) {
  // ACKs arrive at the source host: sender state only, on the source shard.
  OCCAMY_ASSERT_SHARD(*sim_);
  if (completed_ || !started_) return;
  const int64_t ack_seq = static_cast<int64_t>(ack.ack_seq);

  if (ack_seq > snd_una_) {
    const int64_t newly = ack_seq - snd_una_;
    snd_una_ = ack_seq;
    dup_acks_ = 0;
    rto_backoff_ = 0;
    OnNewAck(newly, ack);
    if (in_recovery_) {
      if (snd_una_ >= recover_seq_) {
        in_recovery_ = false;
        cwnd_ = std::max<int64_t>(ssthresh_, 2 * manager_->config().mss);
      } else {
        // NewReno partial ACK: the next hole is lost too; retransmit it now
        // instead of stalling until the RTO.
        SendSegment(snd_una_);
      }
    }
    if (snd_una_ >= params_.size_bytes) {
      Complete();
      return;
    }
    ArmRtoTimer();
  } else if (ack_seq == snd_una_ && snd_nxt_ > snd_una_) {
    // Duplicate ACK while data is outstanding.
    ++dup_acks_;
    // DCTCP marking state still updates on dupacks (exact feedback).
    if (ack.ece && params_.cc == CcAlgorithm::kDctcp) {
      // Count a segment's worth of marked bytes toward the current window.
      dctcp_marked_bytes_ += manager_->config().mss;
      dctcp_acked_bytes_ += manager_->config().mss;
    }
    if (dup_acks_ == 3 && !in_recovery_) EnterFastRecovery();
  }
  SendAvailable();
}

void Connection::EnterFastRecovery() {
  const auto& cfg = manager_->config();
  manager_->mutable_counters().fast_retransmits++;
  ++fast_retx_count_;
  switch (params_.cc) {
    case CcAlgorithm::kDctcp:
      // Loss still halves (DCTCP falls back to Reno behaviour on loss).
      ssthresh_ = std::max<int64_t>(cwnd_ / 2, 2 * cfg.mss);
      break;
    case CcAlgorithm::kReno:
      ssthresh_ = std::max<int64_t>(cwnd_ / 2, 2 * cfg.mss);
      break;
    case CcAlgorithm::kCubic:
      CubicOnLoss();
      ssthresh_ = std::max<int64_t>(
          static_cast<int64_t>(static_cast<double>(cwnd_) * cfg.cubic_beta), 2 * cfg.mss);
      break;
  }
  cwnd_ = ssthresh_;
  in_recovery_ = true;
  recover_seq_ = snd_nxt_;
  SendSegment(snd_una_);  // fast retransmit
}

void Connection::OnNewAck(int64_t newly_acked, const Packet& ack) {
  // RTT sample from the echoed send timestamp.
  if (ack.ts_sent > 0) UpdateRtt(sim_->now() - ack.ts_sent);

  if (params_.cc == CcAlgorithm::kDctcp) {
    dctcp_acked_bytes_ += newly_acked;
    if (ack.ece) dctcp_marked_bytes_ += newly_acked;
    MaybeFinishDctcpWindow();
    if (ack.ece) {
      // Marks end slow start immediately.
      if (cwnd_ < ssthresh_) ssthresh_ = cwnd_;
    } else if (!in_recovery_) {
      GrowWindow(newly_acked);
    }
  } else if (!in_recovery_) {
    if (params_.cc == CcAlgorithm::kCubic && cwnd_ >= ssthresh_) {
      CubicGrow(newly_acked);
    } else {
      GrowWindow(newly_acked);
    }
  }
}

void Connection::MaybeFinishDctcpWindow() {
  const auto& cfg = manager_->config();
  if (snd_una_ < dctcp_window_end_) return;
  if (dctcp_acked_bytes_ > 0) {
    const double f = static_cast<double>(dctcp_marked_bytes_) /
                     static_cast<double>(dctcp_acked_bytes_);
    dctcp_alpha_ = (1.0 - cfg.dctcp_g) * dctcp_alpha_ + cfg.dctcp_g * f;
    if (dctcp_marked_bytes_ > 0) {
      cwnd_ = std::max<int64_t>(
          static_cast<int64_t>(static_cast<double>(cwnd_) * (1.0 - dctcp_alpha_ / 2.0)),
          kMinCwndSegments * cfg.mss);
      ssthresh_ = cwnd_;
    }
  }
  dctcp_acked_bytes_ = 0;
  dctcp_marked_bytes_ = 0;
  dctcp_window_end_ = snd_nxt_;
}

void Connection::GrowWindow(int64_t newly_acked) {
  const auto& cfg = manager_->config();
  if (cwnd_ < ssthresh_) {
    cwnd_ += newly_acked;  // slow start
  } else {
    // Additive increase: one MSS per RTT.
    cwnd_ += std::max<int64_t>(1, cfg.mss * cfg.mss / std::max<int64_t>(cwnd_, 1));
  }
}

void Connection::CubicOnLoss() {
  const auto& cfg = manager_->config();
  const double w_mss = static_cast<double>(cwnd_) / cfg.mss;
  cubic_wmax_segments_ = w_mss;
  cubic_epoch_start_ = 0;  // restart the epoch on next growth
  cubic_k_ = std::cbrt(w_mss * (1.0 - cfg.cubic_beta) / cfg.cubic_c);
}

void Connection::CubicGrow(int64_t newly_acked) {
  (void)newly_acked;
  const auto& cfg = manager_->config();
  const Time now = sim_->now();
  if (cubic_epoch_start_ == 0) {
    cubic_epoch_start_ = now;
    if (cubic_wmax_segments_ <= 0.0) cubic_wmax_segments_ = static_cast<double>(cwnd_) / cfg.mss;
  }
  const double t = ToSeconds(now - cubic_epoch_start_) + ToSeconds(srtt_);
  const double target_mss =
      cfg.cubic_c * std::pow(t - cubic_k_, 3.0) + cubic_wmax_segments_;
  const double cwnd_mss = static_cast<double>(cwnd_) / cfg.mss;
  if (target_mss > cwnd_mss) {
    cwnd_ += static_cast<int64_t>(cfg.mss * (target_mss - cwnd_mss) / cwnd_mss) + 1;
  } else {
    // TCP-friendly floor: grow at least like Reno.
    cwnd_ += std::max<int64_t>(1, cfg.mss * cfg.mss / std::max<int64_t>(cwnd_, 1));
  }
}

void Connection::UpdateRtt(Time sample) {
  const auto& cfg = manager_->config();
  if (sample <= 0) return;
  if (srtt_ == 0) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const Time err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * srtt_ + sample) / 8;
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, cfg.min_rto, cfg.max_rto);
}

void Connection::Complete() {
  OCCAMY_ASSERT_SHARD(*sim_);  // completion is sender-side (see below)
  completed_ = true;
  rto_timer_.Cancel();
  OCCAMY_TRACE_INSTANT_ARG("conn.complete", "flow", params_.id);
  // Receiver state (rcv_*) is deliberately left alone: it belongs to the
  // destination host's shard, which may still be processing in-flight
  // retransmissions concurrently.
  manager_->OnConnectionComplete(this, sim_->now());
}

// ---------------- receiver ----------------

void Connection::HandleData(const Packet& pkt) {
  // Data arrives at the destination host: receiver half (rcv_*) only, on
  // the destination shard — the other side of the sender/receiver split.
  OCCAMY_ASSERT_SHARD(manager_->network().sim_of(params_.dst));
  const auto& cfg = manager_->config();
  const int64_t seq = static_cast<int64_t>(pkt.seq);
  if (seq == rcv_next_ && rcv_ooo_segments_.empty()) {
    // In order, with nothing held out of order (the common case): exactly
    // what the frontier walk below does, minus a set insert and erase.
    rcv_next_ += std::min<int64_t>(cfg.mss, params_.size_bytes - rcv_next_);
  } else if (seq >= rcv_next_) {
    rcv_ooo_segments_.insert(seq / cfg.mss);
    // Advance the contiguous frontier.
    while (true) {
      const int64_t next_seg = rcv_next_ / cfg.mss;
      const auto it = rcv_ooo_segments_.find(next_seg);
      if (it == rcv_ooo_segments_.end()) break;
      rcv_ooo_segments_.erase(it);
      rcv_next_ += std::min<int64_t>(cfg.mss, params_.size_bytes - rcv_next_);
    }
  }
  // Cumulative ACK echoing this packet's CE mark and send timestamp.
  Packet ack;
  ack.kind = PacketKind::kAck;
  ack.flow_id = params_.id;
  ack.src = params_.dst;
  ack.dst = params_.src;
  ack.traffic_class = pkt.traffic_class;
  ack.ecn_capable = false;  // ACKs are not ECN-capable transport packets
  ack.size_bytes = static_cast<uint32_t>(cfg.ack_bytes);
  ack.ack_seq = static_cast<uint64_t>(rcv_next_);
  ack.ece = pkt.ce;
  ack.ts_sent = pkt.ts_sent;
  manager_->mutable_counters().acks_sent++;
  manager_->host(params_.dst).Send(std::move(ack));
}

}  // namespace occamy::transport
