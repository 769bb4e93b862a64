#include "tcpip/tcp_endpoint.hpp"

#include <algorithm>

#include "util/buffer_pool.hpp"

namespace reorder::tcpip {

std::string to_string(TcpState s) {
  switch (s) {
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kClosed: return "CLOSED";
  }
  return "?";
}

std::string to_string(SecondSynBehavior b) {
  switch (b) {
    case SecondSynBehavior::kSpecCompliant: return "spec-compliant";
    case SecondSynBehavior::kAlwaysRst: return "always-rst";
    case SecondSynBehavior::kDualRst: return "dual-rst";
    case SecondSynBehavior::kIgnore: return "ignore";
  }
  return "?";
}

namespace {
std::uint16_t clamp_window(std::uint32_t w) {
  return static_cast<std::uint16_t>(std::min<std::uint32_t>(w, 65535));
}
}  // namespace

TcpEndpoint::TcpEndpoint(sim::EventLoop& loop, TcpBehavior behavior, ConnKey key,
                         std::uint32_t iss, SegmentSender sender)
    : behavior_{behavior},
      key_{key},
      sender_{std::move(sender)},
      iss_{iss},
      snd_una_{iss},
      snd_nxt_{iss},
      peer_mss_{behavior.default_mss},
      delack_timer_{loop},
      rto_timer_{loop} {}

TcpEndpoint::~TcpEndpoint() {
  for (QueuedSegment& q : reassembly_) util::BufferPool::global().release(std::move(q.bytes));
}

void TcpEndpoint::on_segment(const Packet& pkt) {
  ++counters_.segments_in;
  switch (state_) {
    case TcpState::kListen:
      handle_listen(pkt);
      break;
    case TcpState::kSynRcvd:
      handle_syn_rcvd(pkt);
      break;
    case TcpState::kClosed:
      break;  // dead socket; host is responsible for RSTs to closed ports
    default:
      handle_synchronized(pkt);
      break;
  }
}

void TcpEndpoint::handle_listen(const Packet& pkt) {
  if (!pkt.tcp.is_syn() || pkt.tcp.is_ack() || pkt.tcp.is_rst()) return;
  irs_ = pkt.tcp.seq;
  rcv_nxt_ = pkt.tcp.seq + 1;
  peer_mss_ = pkt.tcp.mss.value_or(behavior_.default_mss);
  snd_wnd_ = pkt.tcp.window;
  state_ = TcpState::kSynRcvd;
  send_buf_base_ = iss_ + 1;

  TcpHeader h;
  h.src_port = key_.local_port;
  h.dst_port = key_.remote_port;
  h.flags = kSyn | kAck;
  h.seq = iss_;
  h.ack = rcv_nxt_;
  h.window = clamp_window(behavior_.receive_window);
  h.mss = behavior_.mss_to_advertise;
  snd_nxt_ = iss_ + 1;
  ++counters_.acks_sent;
  sender_(h, {});
  arm_rto();
}

void TcpEndpoint::handle_syn_rcvd(const Packet& pkt) {
  if (pkt.tcp.is_rst()) {
    enter_closed();
    return;
  }
  if (pkt.tcp.is_syn()) {
    // A second SYN on the same four-tuple: the SYN test's probe packet.
    ++counters_.second_syns_seen;
    switch (behavior_.second_syn) {
      case SecondSynBehavior::kSpecCompliant:
        if (seq_in_window(pkt.tcp.seq, rcv_nxt_, behavior_.receive_window)) {
          send_rst();
        } else {
          send_ack_now(/*duplicate=*/false);
        }
        break;
      case SecondSynBehavior::kAlwaysRst:
        send_rst();
        break;
      case SecondSynBehavior::kDualRst:
        send_rst();
        send_rst();
        break;
      case SecondSynBehavior::kIgnore:
        break;
    }
    return;
  }
  if (pkt.tcp.is_ack() && pkt.tcp.ack == snd_nxt_) {
    snd_una_ = pkt.tcp.ack;
    snd_wnd_ = pkt.tcp.window;
    retransmit_count_ = 0;
    cancel_rto();
    state_ = TcpState::kEstablished;
    if (on_established) on_established();
    if (state_ != TcpState::kClosed) {
      if (!pkt.payload.empty()) process_payload(pkt);
    }
    if (state_ != TcpState::kClosed && pkt.tcp.is_fin()) process_fin(pkt);
  }
}

void TcpEndpoint::handle_synchronized(const Packet& pkt) {
  if (pkt.tcp.is_rst()) {
    enter_closed();
    return;
  }
  if (pkt.tcp.is_syn()) {
    // SYN on a synchronized connection: challenge ACK (RFC 5961 behaviour).
    send_ack_now(/*duplicate=*/false);
    return;
  }
  if (pkt.tcp.is_ack()) process_ack(pkt);
  if (state_ == TcpState::kClosed) return;
  if (!pkt.payload.empty()) process_payload(pkt);
  if (state_ == TcpState::kClosed) return;
  if (pkt.tcp.is_fin()) process_fin(pkt);
}

void TcpEndpoint::process_ack(const Packet& pkt) {
  const std::uint32_t ack = pkt.tcp.ack;
  snd_wnd_ = pkt.tcp.window;
  if (seq_gt(ack, snd_una_) && seq_leq(ack, snd_nxt_)) {
    snd_una_ = ack;
    retransmit_count_ = 0;
    // Trim acknowledged bytes off the send buffer. The FIN occupies one
    // sequence number past the data, so clamp to the buffer size.
    const std::uint32_t data_acked = snd_una_ - send_buf_base_;
    const auto drop = std::min<std::size_t>(send_buf_.size(), data_acked);
    if (drop > 0) {
      send_buf_.erase(send_buf_.begin(), send_buf_.begin() + static_cast<std::ptrdiff_t>(drop));
      send_buf_base_ += static_cast<std::uint32_t>(drop);
    }
    cancel_rto();
    if (snd_una_ != snd_nxt_) {
      arm_rto();
    } else if (fin_sent_) {
      // Our FIN is acknowledged.
      if (state_ == TcpState::kFinWait1) {
        state_ = TcpState::kFinWait2;
      } else if (state_ == TcpState::kClosing || state_ == TcpState::kLastAck) {
        enter_closed();
        return;
      }
    }
  }
  try_send();
}

void TcpEndpoint::process_payload(const Packet& pkt) {
  const std::uint32_t seg_seq = pkt.tcp.seq;
  const auto len = static_cast<std::uint32_t>(pkt.payload.size());
  const std::uint32_t seg_end = seg_seq + len;

  if (seq_leq(seg_end, rcv_nxt_)) {
    // Entirely old data: acknowledge immediately so the sender can move on.
    send_ack_now(/*duplicate=*/true);
    return;
  }
  if (seq_gt(seg_seq, rcv_nxt_)) {
    // Out-of-order segment. Queue it (if in window) and emit an immediate
    // duplicate ACK — the behaviour every measurement technique leverages.
    if (seq_in_window(seg_seq, rcv_nxt_, behavior_.receive_window)) {
      const auto it = std::lower_bound(
          reassembly_.begin(), reassembly_.end(), seg_seq,
          [](const QueuedSegment& q, std::uint32_t seq) { return q.seq < seq; });
      if (it == reassembly_.end() || it->seq != seg_seq) {
        const auto queued = reassembly_.insert(
            it, QueuedSegment{seg_seq, util::BufferPool::global().acquire(pkt.payload.size())});
        queued->bytes.assign(pkt.payload.begin(), pkt.payload.end());
        ++counters_.ooo_segments_queued;
      }
    }
    send_ack_now(/*duplicate=*/true);
    return;
  }

  // In-order (possibly overlapping) data.
  const std::uint32_t trim = rcv_nxt_ - seg_seq;
  deliver(std::span<const std::uint8_t>{pkt.payload}.subspan(trim));
  rcv_nxt_ = seg_end;
  const bool had_queued = !reassembly_.empty();
  drain_reassembly();
  if (had_queued) ++counters_.hole_fills;

  if (!reassembly_.empty()) {
    // Still a hole ahead: keep the sender informed immediately.
    send_ack_now(/*duplicate=*/true);
    return;
  }
  if (had_queued && behavior_.immediate_ack_on_hole_fill) {
    send_ack_now(/*duplicate=*/false);
    return;
  }
  if (behavior_.delayed_ack == DelayedAckPolicy::kNone) {
    send_ack_now(/*duplicate=*/false);
    return;
  }
  ++unacked_in_order_;
  if (unacked_in_order_ >= behavior_.ack_every) {
    send_ack_now(/*duplicate=*/false);
  } else {
    schedule_delayed_ack();
  }
}

void TcpEndpoint::process_fin(const Packet& pkt) {
  const std::uint32_t fin_seq = pkt.tcp.seq + static_cast<std::uint32_t>(pkt.payload.size());
  if (fin_received_) {
    send_ack_now(/*duplicate=*/true);
    return;
  }
  if (fin_seq != rcv_nxt_) {
    // FIN beyond a hole: treat as out-of-order, dup-ack.
    send_ack_now(/*duplicate=*/true);
    return;
  }
  fin_received_ = true;
  rcv_nxt_ += 1;
  send_ack_now(/*duplicate=*/false);
  switch (state_) {
    case TcpState::kEstablished:
      state_ = TcpState::kCloseWait;
      if (on_remote_close) on_remote_close();
      break;
    case TcpState::kFinWait1:
      // Simultaneous close; our FIN not yet acked.
      state_ = TcpState::kClosing;
      break;
    case TcpState::kFinWait2:
      enter_closed();  // TIME_WAIT elided in simulation
      break;
    default:
      break;
  }
}

void TcpEndpoint::deliver(std::span<const std::uint8_t> data) {
  if (!data.empty() && on_data) on_data(data);
}

void TcpEndpoint::drain_reassembly() {
  std::size_t drained = 0;
  for (; drained < reassembly_.size(); ++drained) {
    QueuedSegment& q = reassembly_[drained];
    if (seq_gt(q.seq, rcv_nxt_)) break;
    const auto end = q.seq + static_cast<std::uint32_t>(q.bytes.size());
    if (seq_gt(end, rcv_nxt_)) {
      const std::uint32_t trim = rcv_nxt_ - q.seq;
      deliver(std::span<const std::uint8_t>{q.bytes}.subspan(trim));
      rcv_nxt_ = end;
    }
    util::BufferPool::global().release(std::move(q.bytes));
  }
  reassembly_.erase(reassembly_.begin(),
                    reassembly_.begin() + static_cast<std::ptrdiff_t>(drained));
}

void TcpEndpoint::send_flags(std::uint8_t flags) {
  TcpHeader h;
  h.src_port = key_.local_port;
  h.dst_port = key_.remote_port;
  h.flags = flags;
  h.seq = snd_nxt_;
  if ((flags & kAck) != 0) h.ack = rcv_nxt_;
  h.window = clamp_window(behavior_.receive_window);
  sender_(h, {});
}

void TcpEndpoint::send_ack_now(bool duplicate) {
  delack_timer_.cancel();
  unacked_in_order_ = 0;
  ++counters_.acks_sent;
  if (duplicate) ++counters_.dup_acks_sent;
  send_flags(kAck);
}

void TcpEndpoint::send_rst() {
  ++counters_.rsts_sent;
  send_flags(kRst | kAck);
}

void TcpEndpoint::schedule_delayed_ack() {
  if (delack_timer_.armed()) return;
  delack_timer_.arm(behavior_.delayed_ack_timeout, [this] { delayed_ack_fire(); });
}

void TcpEndpoint::delayed_ack_fire() {
  ++counters_.delayed_acks_sent;
  unacked_in_order_ = 0;
  ++counters_.acks_sent;
  send_flags(kAck);
}

void TcpEndpoint::send_data(std::span<const std::uint8_t> data) {
  if (state_ == TcpState::kClosed || fin_sent_ || fin_pending_) return;
  if (send_buf_.empty()) send_buf_base_ = snd_nxt_;
  send_buf_.insert(send_buf_.end(), data.begin(), data.end());
  try_send();
}

void TcpEndpoint::close() {
  if (state_ == TcpState::kClosed || fin_sent_ || fin_pending_) return;
  fin_pending_ = true;
  try_send();
}

void TcpEndpoint::abort() {
  if (state_ == TcpState::kClosed) return;
  send_rst();
  enter_closed();
}

void TcpEndpoint::try_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait) return;

  const std::uint32_t buf_end_seq = send_buf_base_ + static_cast<std::uint32_t>(send_buf_.size());
  while (seq_lt(snd_nxt_, buf_end_seq)) {
    const std::uint32_t in_flight = snd_nxt_ - snd_una_;
    const std::uint32_t wnd_avail = snd_wnd_ > in_flight ? snd_wnd_ - in_flight : 0;
    const std::uint32_t unsent = buf_end_seq - snd_nxt_;
    const std::uint32_t chunk = std::min({static_cast<std::uint32_t>(peer_mss_), wnd_avail, unsent});
    if (chunk == 0) break;  // window closed; rely on the peer's next ACK

    const std::uint32_t offset = snd_nxt_ - send_buf_base_;
    TcpHeader h;
    h.src_port = key_.local_port;
    h.dst_port = key_.remote_port;
    h.flags = kAck | kPsh;
    h.seq = snd_nxt_;
    h.ack = rcv_nxt_;
    h.window = clamp_window(behavior_.receive_window);
    std::vector<std::uint8_t> payload = util::BufferPool::global().acquire(chunk);
    payload.assign(send_buf_.begin() + offset, send_buf_.begin() + offset + chunk);
    // Data segments carry the current ACK; any pending delayed ACK rides out.
    delack_timer_.cancel();
    unacked_in_order_ = 0;
    snd_nxt_ += chunk;
    sender_(h, std::move(payload));
    arm_rto();
  }

  if (fin_pending_ && !fin_sent_ && snd_nxt_ == buf_end_seq) {
    fin_sent_ = true;
    fin_pending_ = false;
    send_flags(kFin | kAck);
    snd_nxt_ += 1;
    if (state_ == TcpState::kEstablished) {
      state_ = TcpState::kFinWait1;
    } else if (state_ == TcpState::kCloseWait) {
      state_ = TcpState::kLastAck;
    }
    arm_rto();
  }
}

void TcpEndpoint::arm_rto() {
  if (rto_timer_.armed()) return;
  if (current_rto_.is_zero()) current_rto_ = behavior_.initial_rto;
  rto_timer_.arm(current_rto_, [this] { rto_fire(); });
}

void TcpEndpoint::cancel_rto() {
  if (!rto_timer_.armed()) return;
  rto_timer_.cancel();
  current_rto_ = behavior_.initial_rto;
}

void TcpEndpoint::rto_fire() {
  if (snd_una_ == snd_nxt_ && state_ != TcpState::kSynRcvd) return;  // nothing outstanding
  ++retransmit_count_;
  if (retransmit_count_ > behavior_.max_retransmits) {
    enter_closed();
    return;
  }
  ++counters_.retransmissions;
  retransmit_one();
  current_rto_ = current_rto_ * 2;
  arm_rto();
}

void TcpEndpoint::retransmit_one() {
  if (state_ == TcpState::kSynRcvd) {
    TcpHeader h;
    h.src_port = key_.local_port;
    h.dst_port = key_.remote_port;
    h.flags = kSyn | kAck;
    h.seq = iss_;
    h.ack = rcv_nxt_;
    h.window = clamp_window(behavior_.receive_window);
    h.mss = behavior_.mss_to_advertise;
    sender_(h, {});
    return;
  }
  const std::uint32_t buf_end_seq = send_buf_base_ + static_cast<std::uint32_t>(send_buf_.size());
  if (seq_lt(snd_una_, buf_end_seq)) {
    // Resend the earliest unacknowledged data segment.
    const std::uint32_t offset = snd_una_ - send_buf_base_;
    const std::uint32_t chunk =
        std::min<std::uint32_t>(peer_mss_, buf_end_seq - snd_una_);
    TcpHeader h;
    h.src_port = key_.local_port;
    h.dst_port = key_.remote_port;
    h.flags = kAck | kPsh;
    h.seq = snd_una_;
    h.ack = rcv_nxt_;
    h.window = clamp_window(behavior_.receive_window);
    std::vector<std::uint8_t> payload = util::BufferPool::global().acquire(chunk);
    payload.assign(send_buf_.begin() + offset, send_buf_.begin() + offset + chunk);
    sender_(h, std::move(payload));
    return;
  }
  if (fin_sent_ && snd_una_ != snd_nxt_) {
    // Only the FIN is outstanding.
    TcpHeader h;
    h.src_port = key_.local_port;
    h.dst_port = key_.remote_port;
    h.flags = kFin | kAck;
    h.seq = snd_nxt_ - 1;
    h.ack = rcv_nxt_;
    h.window = clamp_window(behavior_.receive_window);
    sender_(h, {});
  }
}

void TcpEndpoint::enter_closed() {
  delack_timer_.cancel();
  cancel_rto();
  if (state_ == TcpState::kClosed) return;
  state_ = TcpState::kClosed;
  if (on_closed) on_closed();
}

}  // namespace reorder::tcpip
