// Wire-format tests: sequence arithmetic, IPv4/TCP codecs, packet
// round-trips, checksum verification.
#include <gtest/gtest.h>

#include "netsim/event_loop.hpp"
#include "tcpip/ipv4.hpp"
#include "tcpip/packet.hpp"
#include "tcpip/seq.hpp"
#include "tcpip/tcp_header.hpp"

namespace reorder::tcpip {
namespace {

// ---------- sequence arithmetic ----------

TEST(Seq, BasicComparisons) {
  EXPECT_TRUE(seq_lt(1, 2));
  EXPECT_TRUE(seq_leq(2, 2));
  EXPECT_TRUE(seq_gt(3, 2));
  EXPECT_TRUE(seq_geq(2, 2));
  EXPECT_FALSE(seq_lt(2, 2));
}

TEST(Seq, WrapAround) {
  const std::uint32_t near_max = 0xfffffff0u;
  EXPECT_TRUE(seq_lt(near_max, 5));  // 5 is "after" the wrap
  EXPECT_TRUE(seq_gt(5, near_max));
  EXPECT_EQ(seq_diff(5, near_max), 21);
  EXPECT_EQ(seq_diff(near_max, 5), -21);
}

TEST(Seq, WindowMembership) {
  EXPECT_TRUE(seq_in_window(10, 10, 5));
  EXPECT_TRUE(seq_in_window(14, 10, 5));
  EXPECT_FALSE(seq_in_window(15, 10, 5));
  EXPECT_FALSE(seq_in_window(9, 10, 5));
  // Window straddling the wrap point.
  EXPECT_TRUE(seq_in_window(2, 0xfffffffeu, 10));
  EXPECT_FALSE(seq_in_window(0xfffffff0u, 0xfffffffeu, 10));
}

TEST(Seq, MaxPicksCircularGreater) {
  EXPECT_EQ(seq_max(3, 8), 8u);
  EXPECT_EQ(seq_max(5, 0xfffffff0u), 5u);  // 5 is after the wrap
}

class SeqAntisymmetry : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SeqAntisymmetry, LtGtAreMirrors) {
  const std::uint32_t a = GetParam();
  const std::uint32_t b = a + 1000;
  EXPECT_TRUE(seq_lt(a, b));
  EXPECT_TRUE(seq_gt(b, a));
  EXPECT_FALSE(seq_lt(b, a));
  EXPECT_EQ(seq_diff(b, a), 1000);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SeqAntisymmetry,
                         ::testing::Values(0u, 1u, 0x7fffffffu, 0x80000000u, 0xfffffc00u,
                                           0xffffffffu));

TEST(Ipid, CircularComparison) {
  EXPECT_TRUE(ipid_lt(10, 11));
  EXPECT_TRUE(ipid_lt(0xfff0, 3));  // wrapped
  EXPECT_TRUE(ipid_gt(3, 0xfff0));
  EXPECT_EQ(ipid_diff(3, 0xfff0), 19);
}

// ---------- IPv4 address ----------

TEST(Ipv4Address, ParseAndFormat) {
  const auto a = Ipv4Address::parse("10.1.2.3");
  EXPECT_EQ(a.to_string(), "10.1.2.3");
  EXPECT_EQ(a.value(), 0x0a010203u);
  EXPECT_EQ(Ipv4Address::from_octets(192, 168, 0, 1).to_string(), "192.168.0.1");
}

TEST(Ipv4Address, ParseRejectsGarbage) {
  EXPECT_THROW(Ipv4Address::parse("10.1.2"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("256.1.1.1"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("1.2.3.4x"), std::invalid_argument);
  EXPECT_THROW(Ipv4Address::parse("banana"), std::invalid_argument);
}

// ---------- IPv4 header codec ----------

Ipv4Header sample_ip() {
  Ipv4Header ip;
  ip.tos = 0x10;
  ip.identification = 0xbeef;
  ip.dont_fragment = true;
  ip.ttl = 57;
  ip.protocol = IpProto::kTcp;
  ip.src = Ipv4Address::parse("10.0.0.1");
  ip.dst = Ipv4Address::parse("10.0.0.2");
  return ip;
}

TEST(Ipv4Codec, RoundTripWithValidChecksum) {
  const auto ip = sample_ip();
  std::vector<std::uint8_t> buf;
  util::ByteWriter w{buf};
  ip.serialize(w, 100);
  ASSERT_EQ(buf.size(), Ipv4Header::kWireSize);

  util::ByteReader r{buf};
  const auto parsed = Ipv4Header::parse(r);
  EXPECT_TRUE(parsed.checksum_ok);
  EXPECT_EQ(parsed.total_length, 120);
  EXPECT_EQ(parsed.header.tos, ip.tos);
  EXPECT_EQ(parsed.header.identification, ip.identification);
  EXPECT_EQ(parsed.header.dont_fragment, true);
  EXPECT_EQ(parsed.header.more_fragments, false);
  EXPECT_EQ(parsed.header.ttl, ip.ttl);
  EXPECT_EQ(parsed.header.src, ip.src);
  EXPECT_EQ(parsed.header.dst, ip.dst);
}

TEST(Ipv4Codec, CorruptionBreaksChecksum) {
  const auto ip = sample_ip();
  std::vector<std::uint8_t> buf;
  util::ByteWriter w{buf};
  ip.serialize(w, 0);
  buf[8] ^= 0xff;  // flip the TTL
  util::ByteReader r{buf};
  EXPECT_FALSE(Ipv4Header::parse(r).checksum_ok);
}

TEST(Ipv4Codec, RejectsNonIpv4) {
  std::vector<std::uint8_t> buf(20, 0);
  buf[0] = 0x65;  // version 6
  util::ByteReader r{buf};
  EXPECT_THROW(Ipv4Header::parse(r), util::ParseError);
}

// ---------- TCP header codec ----------

TcpHeader sample_tcp() {
  TcpHeader tcp;
  tcp.src_port = 40001;
  tcp.dst_port = 80;
  tcp.seq = 0x01020304;
  tcp.ack = 0x0a0b0c0d;
  tcp.flags = kSyn | kAck;
  tcp.window = 8192;
  tcp.mss = 1460;
  return tcp;
}

TEST(TcpCodec, RoundTripWithMssOption) {
  const auto tcp = sample_tcp();
  const auto src = Ipv4Address::parse("1.2.3.4");
  const auto dst = Ipv4Address::parse("5.6.7.8");
  std::vector<std::uint8_t> buf;
  util::ByteWriter w{buf};
  tcp.serialize(w, src, dst, {});
  ASSERT_EQ(buf.size(), 24u);

  const auto parsed = TcpHeader::parse(buf, src, dst);
  EXPECT_TRUE(parsed.checksum_ok);
  EXPECT_EQ(parsed.header_len, 24u);
  EXPECT_EQ(parsed.header.src_port, tcp.src_port);
  EXPECT_EQ(parsed.header.seq, tcp.seq);
  EXPECT_EQ(parsed.header.ack, tcp.ack);
  EXPECT_EQ(parsed.header.flags, tcp.flags);
  EXPECT_EQ(parsed.header.window, tcp.window);
  ASSERT_TRUE(parsed.header.mss.has_value());
  EXPECT_EQ(*parsed.header.mss, 1460);
}

TEST(TcpCodec, ChecksumCoversPayloadAndPseudoHeader) {
  auto tcp = sample_tcp();
  tcp.mss.reset();
  const auto src = Ipv4Address::parse("1.2.3.4");
  const auto dst = Ipv4Address::parse("5.6.7.8");
  const std::vector<std::uint8_t> payload{'h', 'i'};
  std::vector<std::uint8_t> buf;
  util::ByteWriter w{buf};
  tcp.serialize(w, src, dst, payload);

  EXPECT_TRUE(TcpHeader::parse(buf, src, dst).checksum_ok);
  // Same bytes against a different pseudo-header must fail.
  EXPECT_FALSE(TcpHeader::parse(buf, src, Ipv4Address::parse("5.6.7.9")).checksum_ok);
  // Payload corruption must fail.
  buf.back() ^= 0x01;
  EXPECT_FALSE(TcpHeader::parse(buf, src, dst).checksum_ok);
}

TEST(TcpCodec, RejectsBadDataOffset) {
  std::vector<std::uint8_t> buf(20, 0);
  buf[12] = 0x10;  // data offset 4 words = 16 bytes < minimum
  EXPECT_THROW(TcpHeader::parse(buf, Ipv4Address{}, Ipv4Address{}), util::ParseError);
}

TEST(TcpHeaderApi, FlagHelpersAndDescribe) {
  TcpHeader h;
  h.flags = kSyn | kAck;
  EXPECT_TRUE(h.is_syn());
  EXPECT_TRUE(h.is_ack());
  EXPECT_FALSE(h.is_rst());
  const auto s = h.describe();
  EXPECT_NE(s.find("SYN"), std::string::npos);
  EXPECT_NE(s.find("ACK"), std::string::npos);
}

// ---------- whole-packet codec ----------

TEST(PacketCodec, RoundTrip) {
  Packet pkt;
  pkt.ip = sample_ip();
  pkt.tcp = sample_tcp();
  pkt.payload = {1, 2, 3, 4, 5};

  const auto wire = pkt.to_wire();
  EXPECT_EQ(wire.size(), pkt.wire_size());
  const auto back = Packet::from_wire(wire);
  EXPECT_TRUE(back.checksums_ok);
  EXPECT_EQ(back.packet.ip.src, pkt.ip.src);
  EXPECT_EQ(back.packet.tcp.seq, pkt.tcp.seq);
  EXPECT_EQ(back.packet.payload, pkt.payload);
}

TEST(PacketCodec, LengthMismatchThrows) {
  Packet pkt;
  pkt.ip = sample_ip();
  pkt.tcp = sample_tcp();
  auto wire = pkt.to_wire();
  wire.push_back(0x00);  // trailing junk not covered by total_length
  EXPECT_THROW(Packet::from_wire(wire), util::ParseError);
}

TEST(PacketApi, SeqLenCountsSynAndFin) {
  Packet pkt;
  pkt.tcp.flags = kSyn;
  EXPECT_EQ(pkt.seq_len(), 1u);
  pkt.tcp.flags = kFin | kAck;
  pkt.payload = {9, 9};
  EXPECT_EQ(pkt.seq_len(), 3u);
}

TEST(PacketApi, DescribeMentionsEndpoints) {
  Packet pkt;
  pkt.ip = sample_ip();
  pkt.tcp = sample_tcp();
  const auto s = pkt.describe();
  EXPECT_NE(s.find("10.0.0.1:40001"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.2:80"), std::string::npos);
}

TEST(PacketApi, UidsAreUnique) {
  sim::EventLoop world;
  const auto a = world.next_packet_uid();
  const auto b = world.next_packet_uid();
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
  // A world's uids are its own: another world numbers from the start,
  // whatever ran before it on this thread.
  sim::EventLoop other;
  EXPECT_EQ(other.next_packet_uid(), a);
}

}  // namespace
}  // namespace reorder::tcpip
