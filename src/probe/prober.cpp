#include "probe/prober.hpp"

#include "tcpip/seq.hpp"

namespace reorder::probe {

ProbeConnection::ProbeConnection(ProbeHost& host, FlowAddr addr, ProbeConnectionOptions options)
    : host_{host}, addr_{addr}, factory_{addr}, options_{options} {
  host_.register_flow(addr_, [this](const tcpip::Packet& pkt) { handle(pkt); });
}

void ProbeConnection::shut() {
  state_ = State::kClosed;
  timer_.cancel();
  if (registered_) host_.unregister_flow(addr_);
  registered_ = false;
}

void ProbeConnection::connect(std::function<void(bool)> done) {
  connect_done_ = std::move(done);
  state_ = State::kSynSent;
  send_syn();
  timer_.arm(options_.syn_rto, [this] { syn_rto_fire(1); });
}

void ProbeConnection::send_syn() {
  host_.send(factory_.syn(options_.iss, options_.advertised_mss, options_.advertised_window));
}

void ProbeConnection::syn_rto_fire(int attempt) {
  if (state_ != State::kSynSent) return;
  if (attempt > options_.max_syn_retries) {
    state_ = State::kClosed;
    if (connect_done_) {
      auto cb = std::move(connect_done_);
      connect_done_ = nullptr;
      cb(false);
    }
    return;
  }
  send_syn();
  timer_.arm(options_.syn_rto * 2, [this, attempt] { syn_rto_fire(attempt + 1); });
}

void ProbeConnection::handle(const tcpip::Packet& pkt) {
  switch (state_) {
    case State::kSynSent:
      if (pkt.tcp.is_rst()) {
        state_ = State::kClosed;
        if (connect_done_) {
          auto cb = std::move(connect_done_);
          connect_done_ = nullptr;
          cb(false);
        }
        return;
      }
      if (pkt.tcp.is_syn() && pkt.tcp.is_ack() && pkt.tcp.ack == options_.iss + 1) {
        irs_ = pkt.tcp.seq;
        established_ = true;
        state_ = State::kEstablished;
        timer_.cancel();  // no more SYN retries
        send_ack_abs(rcv_base());
        if (connect_done_) {
          auto cb = std::move(connect_done_);
          connect_done_ = nullptr;
          cb(true);
        }
        return;
      }
      return;  // stray packet during handshake
    case State::kEstablished:
    case State::kFinSent:
      break;
    case State::kIdle:
    case State::kClosed:
      return;
  }

  if (pkt.tcp.is_rst()) {
    state_ = State::kClosed;
    if (on_packet) on_packet(pkt);
    return;
  }

  // Close bookkeeping (runs before the measurement hook so tests can also
  // observe FIN/ACK traffic if they want to).
  if (state_ == State::kFinSent) {
    if (pkt.tcp.is_ack() && tcpip::seq_geq(pkt.tcp.ack, fin_seq_abs_ + 1)) our_fin_acked_ = true;
    if (pkt.tcp.is_fin() && !remote_fin_seen_) {
      remote_fin_seen_ = true;
      const std::uint32_t fin_at = pkt.tcp.seq + static_cast<std::uint32_t>(pkt.payload.size());
      send_ack_abs(fin_at + 1);
    }
    if (our_fin_acked_ && remote_fin_seen_) {
      state_ = State::kClosed;
      timer_.cancel();
      if (close_done_) {
        auto cb = std::move(close_done_);
        close_done_ = nullptr;
        cb();
      }
    }
  }

  if (on_packet) on_packet(pkt);
}

tcpip::Packet ProbeConnection::build_data_rel(std::uint32_t rel_seq,
                                              std::span<const std::uint8_t> payload) const {
  return factory_.data(snd_base() + rel_seq, rcv_base(), options_.advertised_window, payload);
}

void ProbeConnection::send_data_rel(std::uint32_t rel_seq, std::span<const std::uint8_t> payload) {
  host_.send(build_data_rel(rel_seq, payload));
}

void ProbeConnection::send_ack_abs(std::uint32_t ack_abs) {
  host_.send(factory_.ack(established_ ? options_.iss + 1 : options_.iss, ack_abs,
                          options_.advertised_window));
}

void ProbeConnection::close(std::uint32_t rel_seq, std::function<void()> done) {
  if (state_ != State::kEstablished) {
    if (done) done();
    return;
  }
  close_done_ = std::move(done);
  state_ = State::kFinSent;
  fin_seq_abs_ = snd_base() + rel_seq;
  host_.send(factory_.fin(fin_seq_abs_, rcv_base(), options_.advertised_window));
  // Close timeout: give up after a generous interval and report done anyway
  // (the measurement is already finished by this point).
  timer_.arm(util::Duration::seconds(5), [this] {
    if (state_ != State::kFinSent) return;
    state_ = State::kClosed;
    if (close_done_) {
      auto cb = std::move(close_done_);
      close_done_ = nullptr;
      cb();
    }
  });
}

void ProbeConnection::abort() {
  if (state_ == State::kClosed) return;
  // RST with our current send sequence; enough for the simulated stacks.
  host_.send(factory_.rst(established_ ? snd_base() : options_.iss));
  state_ = State::kClosed;
}

}  // namespace reorder::probe
