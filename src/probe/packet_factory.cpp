#include "probe/packet_factory.hpp"

#include "util/buffer_pool.hpp"

namespace reorder::probe {

tcpip::Packet PacketFactory::base() const {
  tcpip::Packet pkt;
  pkt.ip.src = addr_.local;
  pkt.ip.dst = addr_.remote;
  pkt.ip.protocol = tcpip::IpProto::kTcp;
  pkt.ip.identification = 0;  // probe packets: IPID irrelevant to the tests
  pkt.tcp.src_port = addr_.local_port;
  pkt.tcp.dst_port = addr_.remote_port;
  return pkt;
}

tcpip::Packet PacketFactory::syn(std::uint32_t iss, std::uint16_t mss,
                                 std::uint16_t window) const {
  auto pkt = base();
  pkt.tcp.flags = tcpip::kSyn;
  pkt.tcp.seq = iss;
  pkt.tcp.window = window;
  pkt.tcp.mss = mss;
  return pkt;
}

tcpip::Packet PacketFactory::ack(std::uint32_t seq, std::uint32_t ack,
                                 std::uint16_t window) const {
  auto pkt = base();
  pkt.tcp.flags = tcpip::kAck;
  pkt.tcp.seq = seq;
  pkt.tcp.ack = ack;
  pkt.tcp.window = window;
  return pkt;
}

tcpip::Packet PacketFactory::data(std::uint32_t seq, std::uint32_t ack, std::uint16_t window,
                                  std::span<const std::uint8_t> payload) const {
  auto pkt = base();
  pkt.tcp.flags = tcpip::kAck | tcpip::kPsh;
  pkt.tcp.seq = seq;
  pkt.tcp.ack = ack;
  pkt.tcp.window = window;
  pkt.payload = util::BufferPool::global().acquire(payload.size());
  pkt.payload.assign(payload.begin(), payload.end());
  return pkt;
}

tcpip::Packet PacketFactory::fin(std::uint32_t seq, std::uint32_t ack,
                                 std::uint16_t window) const {
  auto pkt = base();
  pkt.tcp.flags = tcpip::kFin | tcpip::kAck;
  pkt.tcp.seq = seq;
  pkt.tcp.ack = ack;
  pkt.tcp.window = window;
  return pkt;
}

tcpip::Packet PacketFactory::rst(std::uint32_t seq) const {
  auto pkt = base();
  pkt.tcp.flags = tcpip::kRst;
  pkt.tcp.seq = seq;
  pkt.tcp.window = 0;
  return pkt;
}

}  // namespace reorder::probe
