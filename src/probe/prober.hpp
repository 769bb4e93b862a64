// A user-level TCP connection crafted packet-by-packet — the substrate the
// single-connection, dual-connection and data-transfer tests build on.
// Unlike a kernel socket, the owner has full control over every sequence
// number sent, which is exactly what the measurement techniques need
// (deliberate holes, straddling samples, acknowledging past losses).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "probe/packet_factory.hpp"
#include "probe/probe_host.hpp"
#include "util/time.hpp"

namespace reorder::probe {

struct ProbeConnectionOptions {
  std::uint32_t iss{100'000};
  std::uint16_t advertised_mss{1460};
  std::uint16_t advertised_window{65535};
  util::Duration syn_rto{util::Duration::millis(250)};
  int max_syn_retries{6};
};

/// One probe-side TCP connection. connect() performs the three-way
/// handshake (with SYN retransmission); after establishment the owner
/// sends arbitrary segments via the helpers and observes every incoming
/// packet through `on_packet`. The connection's flow registration and its
/// pending timer capture the connection itself, so destroying it shuts it.
class ProbeConnection {
 public:
  ProbeConnection(ProbeHost& host, FlowAddr addr, ProbeConnectionOptions options);
  ~ProbeConnection() { shut(); }

  ProbeConnection(const ProbeConnection&) = delete;
  ProbeConnection& operator=(const ProbeConnection&) = delete;

  /// Starts the handshake; `done(true)` once established, `done(false)` on
  /// RST or SYN-retry exhaustion.
  void connect(std::function<void(bool)> done);

  /// Graceful close: sends FIN at relative sequence `rel_seq` (the byte
  /// offset the remote expects next), then acknowledges the remote's FIN.
  /// `done` fires when both directions are closed or the close times out.
  void close(std::uint32_t rel_seq, std::function<void()> done);

  /// Abortive close (RST). Used for cleanup when graceful close is not
  /// worth the round trips.
  void abort();

  /// Stops the connection where it is: unregisters its flow and cancels
  /// its pending timer, sending nothing, so no later packet or timer
  /// reaches it. Safe from inside the connection's own packet handler
  /// (ProbeHost keeps a handler removed mid-call until its dispatch
  /// returns), though freeing the connection there is not.
  void shut();

  // --- established-state accessors ---
  bool established() const { return established_; }
  std::uint32_t iss() const { return options_.iss; }
  /// Remote initial sequence number (valid once established).
  std::uint32_t irs() const { return irs_; }
  /// Absolute sequence of our first data byte (iss + 1).
  std::uint32_t snd_base() const { return options_.iss + 1; }
  /// Absolute sequence of the remote's first data byte (irs + 1).
  std::uint32_t rcv_base() const { return irs_ + 1; }

  /// Every packet arriving on this flow, delivered after internal
  /// handshake processing. The hook point for measurement logic.
  std::function<void(const tcpip::Packet&)> on_packet;

  // --- crafted sends (all sequence numbers relative to snd_base()) ---
  /// Builds a 1-byte (or larger) data segment at relative offset
  /// `rel_seq`; acknowledges rcv_base() so the remote sees a live ACK.
  tcpip::Packet build_data_rel(std::uint32_t rel_seq, std::span<const std::uint8_t> payload) const;
  void send_data_rel(std::uint32_t rel_seq, std::span<const std::uint8_t> payload);

  /// Sends a pure ACK with an absolute acknowledgment number.
  void send_ack_abs(std::uint32_t ack_abs);

  void send_raw(tcpip::Packet pkt) { host_.send(std::move(pkt)); }

  const FlowAddr& addr() const { return addr_; }
  const PacketFactory& factory() const { return factory_; }
  ProbeHost& host() { return host_; }

 private:
  void handle(const tcpip::Packet& pkt);
  void send_syn();
  void syn_rto_fire(int attempt);

  enum class State { kIdle, kSynSent, kEstablished, kFinSent, kClosed };

  ProbeHost& host_;
  FlowAddr addr_;
  PacketFactory factory_;
  ProbeConnectionOptions options_;

  State state_{State::kIdle};
  bool established_{false};
  std::uint32_t irs_{0};
  std::uint32_t fin_seq_abs_{0};
  bool remote_fin_seen_{false};
  bool our_fin_acked_{false};

  std::function<void(bool)> connect_done_;
  std::function<void()> close_done_;
  sim::Timer timer_{host_.loop()};  ///< SYN retries, then the close timeout
  bool registered_{true};
};

}  // namespace reorder::probe
