// Server-side TCP state machine with the behavioural knobs the paper's
// measurement techniques depend on (and are confounded by):
//
//  * immediate duplicate ACK on out-of-order data (fast-retransmit support,
//    RFC 5681) — the signal every test exploits;
//  * the delayed acknowledgment algorithm, including whether an ACK for a
//    segment that fills a sequence hole is sent immediately or may be
//    delayed/coalesced — the ambiguity in the single-connection test;
//  * the response to a second SYN while in SYN_RCVD — spec-compliant
//    (RST if in-window, pure ACK otherwise), always-RST (most common),
//    dual-RST, or silence — the SYN test's dependency.
//
// The probe side does NOT use this class; it crafts raw segments through
// probe::Prober, exactly as sting does with BPF.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "netsim/event_loop.hpp"
#include "tcpip/packet.hpp"
#include "tcpip/seq.hpp"

namespace reorder::tcpip {

enum class TcpState {
  kListen,
  kSynRcvd,
  kEstablished,
  kCloseWait,
  kLastAck,
  kFinWait1,
  kFinWait2,
  kClosing,
  kClosed,
};

std::string to_string(TcpState s);

/// How a host reacts to a second SYN while in SYN_RCVD (paper §III-D).
enum class SecondSynBehavior {
  kSpecCompliant,  ///< RST if the SYN seq is in-window, else a pure ACK
  kAlwaysRst,      ///< most common implementation: RST regardless
  kDualRst,        ///< a small number of hosts emit two RSTs
  kIgnore,         ///< only respond to the first SYN
};

std::string to_string(SecondSynBehavior b);

/// Delayed acknowledgment scheme.
enum class DelayedAckPolicy {
  kNone,      ///< acknowledge every in-order segment immediately
  kStandard,  ///< delay up to a timeout or every 2nd segment (RFC 1122)
};

/// Implementation-variant knobs for a simulated stack.
struct TcpBehavior {
  DelayedAckPolicy delayed_ack{DelayedAckPolicy::kStandard};
  util::Duration delayed_ack_timeout{util::Duration::millis(200)};
  int ack_every{2};  ///< force an ACK after this many unacked in-order segments
  /// RFC 5681 says an ACK SHOULD be sent immediately when a segment fills a
  /// hole; stacks that treat it as ordinary in-order data (false) produce
  /// the single-connection test's lone-ACK ambiguity.
  bool immediate_ack_on_hole_fill{false};
  SecondSynBehavior second_syn{SecondSynBehavior::kAlwaysRst};
  util::Duration initial_rto{util::Duration::millis(250)};
  int max_retransmits{8};
  std::uint16_t default_mss{1460};   ///< assumed peer MSS when none offered
  std::uint16_t mss_to_advertise{1460};
  std::uint32_t receive_window{65535};
};

/// Identifies a connection from the host's point of view.
struct ConnKey {
  std::uint16_t local_port{0};
  Ipv4Address remote_addr;
  std::uint16_t remote_port{0};
  friend auto operator<=>(const ConnKey&, const ConnKey&) = default;
};

/// Event counters exposed for tests and experiment sanity checks.
struct EndpointCounters {
  std::uint64_t segments_in{0};
  std::uint64_t acks_sent{0};
  std::uint64_t dup_acks_sent{0};
  std::uint64_t delayed_acks_sent{0};
  std::uint64_t ooo_segments_queued{0};
  std::uint64_t hole_fills{0};
  std::uint64_t retransmissions{0};
  std::uint64_t rsts_sent{0};
  std::uint64_t second_syns_seen{0};
};

/// One TCP connection on a simulated host.
class TcpEndpoint {
 public:
  /// Sends a finished TCP header + payload; the host wraps it in IP.
  using SegmentSender = std::function<void(TcpHeader, std::vector<std::uint8_t>)>;

  TcpEndpoint(sim::EventLoop& loop, TcpBehavior behavior, ConnKey key, std::uint32_t iss,
              SegmentSender sender);
  ~TcpEndpoint();

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  // --- application interface ---
  /// Called when the three-way handshake completes.
  std::function<void()> on_established;
  /// Called with each chunk of in-order application data.
  std::function<void(std::span<const std::uint8_t>)> on_data;
  /// Called when the peer's FIN has been consumed.
  std::function<void()> on_remote_close;
  /// Called when the connection reaches CLOSED (normally or via RST).
  std::function<void()> on_closed;

  /// Queues application data for transmission (segmented by peer MSS and
  /// bounded by the peer's advertised window).
  void send_data(std::span<const std::uint8_t> data);

  /// Graceful close: FIN is emitted once the send buffer drains.
  void close();

  /// Abortive close: emits RST and drops all state.
  void abort();

  /// Feeds one received segment into the state machine.
  void on_segment(const Packet& pkt);

  // --- introspection ---
  TcpState state() const { return state_; }
  const ConnKey& key() const { return key_; }
  std::uint32_t rcv_nxt() const { return rcv_nxt_; }
  std::uint32_t snd_nxt() const { return snd_nxt_; }
  const EndpointCounters& counters() const { return counters_; }
  bool fin_received() const { return fin_received_; }

 private:
  void handle_listen(const Packet& pkt);
  void handle_syn_rcvd(const Packet& pkt);
  void handle_synchronized(const Packet& pkt);
  void process_ack(const Packet& pkt);
  void process_payload(const Packet& pkt);
  void process_fin(const Packet& pkt);

  void deliver(std::span<const std::uint8_t> data);
  void drain_reassembly();

  void send_flags(std::uint8_t flags);
  void send_ack_now(bool duplicate);
  void send_rst();
  void schedule_delayed_ack();
  void delayed_ack_fire();

  void try_send();
  void arm_rto();
  void cancel_rto();
  void rto_fire();
  void retransmit_one();

  void enter_closed();

  TcpBehavior behavior_;
  ConnKey key_;
  SegmentSender sender_;

  TcpState state_{TcpState::kListen};
  EndpointCounters counters_;

  // Receive side.
  std::uint32_t irs_{0};
  std::uint32_t rcv_nxt_{0};
  struct QueuedSegment {
    std::uint32_t seq;
    std::vector<std::uint8_t> bytes;
  };
  /// Out-of-order segments by ascending seq; keeps its capacity across
  /// holes, so queueing a segment allocates nothing once warm.
  std::vector<QueuedSegment> reassembly_;
  bool fin_received_{false};

  // Send side.
  std::uint32_t iss_{0};
  std::uint32_t snd_una_{0};
  std::uint32_t snd_nxt_{0};
  std::uint32_t snd_wnd_{0};
  std::uint16_t peer_mss_{0};
  std::vector<std::uint8_t> send_buf_;  // bytes [snd_una_offset.., ...]
  std::uint32_t send_buf_base_{0};      // seq of send_buf_[0]
  bool fin_pending_{false};
  bool fin_sent_{false};

  // Delayed ACK machinery: an ACK is pending while its timer is armed.
  int unacked_in_order_{0};
  sim::Timer delack_timer_;

  // Retransmission.
  sim::Timer rto_timer_;
  util::Duration current_rto_{};
  int retransmit_count_{0};
};

}  // namespace reorder::tcpip
