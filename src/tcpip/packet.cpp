#include "tcpip/packet.hpp"

#include <cstdio>

#include "util/buffer_pool.hpp"

namespace reorder::tcpip {

std::vector<std::uint8_t> Packet::to_wire() const {
  std::vector<std::uint8_t> out = util::BufferPool::global().acquire(wire_size());
  to_wire_into(out);
  return out;
}

void Packet::to_wire_into(std::vector<std::uint8_t>& out) const {
  out.clear();
  out.reserve(wire_size());
  util::ByteWriter w{out};
  if (is_icmp()) {
    ip.serialize(w, IcmpEcho::kWireSize + payload.size());
    icmp->serialize(w, payload);
  } else {
    ip.serialize(w, tcp.wire_size() + payload.size());
    tcp.serialize(w, ip.src, ip.dst, payload);
  }
}

Packet::FromWire Packet::from_wire(std::span<const std::uint8_t> bytes) {
  util::ByteReader r{bytes};
  const auto ipp = Ipv4Header::parse(r);
  if (ipp.total_length != bytes.size()) throw util::ParseError{"IP total length mismatch"};
  const auto segment = r.bytes(r.remaining());

  FromWire out;
  out.packet.ip = ipp.header;
  if (ipp.header.protocol == IpProto::kIcmp) {
    const auto icmpp = IcmpEcho::parse(segment);
    out.packet.icmp = icmpp.header;
    out.packet.payload = util::BufferPool::global().acquire(segment.size());
    out.packet.payload.assign(segment.begin() + static_cast<std::ptrdiff_t>(icmpp.header_len),
                              segment.end());
    out.checksums_ok = ipp.checksum_ok && icmpp.checksum_ok;
    return out;
  }
  const auto tcpp = TcpHeader::parse(segment, ipp.header.src, ipp.header.dst);
  out.packet.tcp = tcpp.header;
  out.packet.payload = util::BufferPool::global().acquire(segment.size());
  out.packet.payload.assign(segment.begin() + static_cast<std::ptrdiff_t>(tcpp.header_len),
                            segment.end());
  out.checksums_ok = ipp.checksum_ok && tcpp.checksum_ok;
  return out;
}

void recycle(Packet&& pkt) { util::BufferPool::global().release(std::move(pkt.payload)); }

std::string Packet::describe() const {
  char buf[192];
  if (is_icmp()) {
    std::snprintf(buf, sizeof buf, "%s > %s ICMP %s id=%u seq=%u len=%zu",
                  ip.src.to_string().c_str(), ip.dst.to_string().c_str(),
                  icmp->type == IcmpType::kEchoRequest ? "echo-request" : "echo-reply",
                  icmp->identifier, icmp->sequence, payload.size());
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%s:%u > %s:%u %s len=%zu ipid=%u", ip.src.to_string().c_str(),
                tcp.src_port, ip.dst.to_string().c_str(), tcp.dst_port, tcp.describe().c_str(),
                payload.size(), ip.identification);
  return buf;
}

}  // namespace reorder::tcpip
