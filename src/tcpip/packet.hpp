// The value type that flows through the simulator: a TCP/IPv4 datagram with
// structured headers plus tracing metadata. Structured form keeps the hot
// path allocation-light; `to_wire` / `from_wire` give the exact byte-level
// representation when needed (pcap output, codec tests).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tcpip/icmp.hpp"
#include "tcpip/ipv4.hpp"
#include "tcpip/tcp_header.hpp"
#include "util/time.hpp"

namespace reorder::tcpip {

/// One IPv4 packet in flight: TCP (the default) or ICMP echo when
/// ip.protocol == kIcmp and `icmp` is set.
struct Packet {
  Ipv4Header ip;
  TcpHeader tcp;
  std::optional<IcmpEcho> icmp;
  std::vector<std::uint8_t> payload;

  bool is_icmp() const { return ip.protocol == IpProto::kIcmp && icmp.has_value(); }

  // --- tracing metadata (not on the wire) ---
  std::uint64_t uid{0};                ///< unique per-packet id for ground truth
  util::TimePoint first_sent;          ///< stamped when first transmitted

  /// Bytes this packet occupies on the wire (IP header + L4 + payload).
  std::size_t wire_size() const {
    const std::size_t l4 = is_icmp() ? IcmpEcho::kWireSize : tcp.wire_size();
    return Ipv4Header::kWireSize + l4 + payload.size();
  }

  std::size_t payload_size() const { return payload.size(); }

  /// The sequence range [seq, seq + len) this segment occupies, where SYN
  /// and FIN each consume one sequence number.
  std::uint32_t seq_len() const {
    std::uint32_t len = static_cast<std::uint32_t>(payload.size());
    if (tcp.has(kSyn)) ++len;
    if (tcp.has(kFin)) ++len;
    return len;
  }

  /// Serializes to standards-conformant wire bytes (checksums valid).
  /// The returned buffer comes from util::BufferPool::global(); callers on
  /// a hot path should hand it back with util::BufferPool::release (or use
  /// to_wire_into with a reused scratch buffer).
  std::vector<std::uint8_t> to_wire() const;

  /// Serializes into `out` (cleared first, capacity reused) — the
  /// allocation-free form for per-packet call sites.
  void to_wire_into(std::vector<std::uint8_t>& out) const;

  struct FromWire;
  /// Parses wire bytes back into a structured packet. Throws
  /// util::ParseError on malformed input; sets `checksums_ok` accordingly.
  static FromWire from_wire(std::span<const std::uint8_t> bytes);

  /// One-line rendering for logs: "10.0.0.1:5000 > 10.0.0.2:80 SYN seq=..".
  std::string describe() const;
};

struct Packet::FromWire {
  Packet packet;
  bool checksums_ok{false};
};

/// Returns a dead packet's payload buffer to util::BufferPool::global().
/// Terminal sinks (host ingress, probe delivery) call this so the payload
/// capacity cycles back to the senders instead of hitting the allocator.
void recycle(Packet&& pkt);

}  // namespace reorder::tcpip
