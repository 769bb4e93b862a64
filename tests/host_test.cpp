// Tests for tcpip::Host: demultiplexing, listeners/apps, closed-port RSTs,
// IPID stamping, endpoint lifecycle.
#include <gtest/gtest.h>

#include <vector>

#include "netsim/event_loop.hpp"
#include "tcpip/host.hpp"
#include "tcpip/seq.hpp"

namespace reorder::tcpip {
namespace {

using util::Duration;

const Ipv4Address kClient = Ipv4Address::from_octets(10, 0, 0, 1);
const Ipv4Address kServer = Ipv4Address::from_octets(10, 0, 0, 2);

struct Harness {
  sim::EventLoop loop;
  std::vector<Packet> out;
  std::unique_ptr<Host> host;

  explicit Harness(HostConfig cfg = make_config()) {
    cfg.address = kServer;
    host = std::make_unique<Host>(loop, std::move(cfg));
    host->set_transmit([this](Packet p) { out.push_back(std::move(p)); });
  }

  static HostConfig make_config() {
    HostConfig cfg;
    cfg.listeners[9] = ListenerConfig{AppKind::kDiscard, 0};
    cfg.listeners[7] = ListenerConfig{AppKind::kEcho, 0};
    cfg.listeners[80] = ListenerConfig{AppKind::kObjectServer, 1000};
    return cfg;
  }

  Packet make(std::uint16_t sport, std::uint16_t dport, std::uint8_t flags, std::uint32_t seq,
              std::uint32_t ack, std::vector<std::uint8_t> payload = {}) {
    Packet pkt;
    pkt.ip.src = kClient;
    pkt.ip.dst = kServer;
    pkt.tcp.src_port = sport;
    pkt.tcp.dst_port = dport;
    pkt.tcp.flags = flags;
    pkt.tcp.seq = seq;
    pkt.tcp.ack = ack;
    pkt.tcp.window = 65535;
    pkt.tcp.mss = flags & kSyn ? std::optional<std::uint16_t>{100} : std::nullopt;
    pkt.payload = std::move(payload);
    pkt.uid = loop.next_packet_uid();
    return pkt;
  }

  /// Client-side mini handshake returning the server's ISS.
  std::uint32_t establish(std::uint16_t sport, std::uint16_t dport) {
    host->receive(make(sport, dport, kSyn, 1000, 0));
    EXPECT_FALSE(out.empty());
    const std::uint32_t server_iss = out.back().tcp.seq;
    host->receive(make(sport, dport, kAck, 1001, server_iss + 1));
    out.clear();
    return server_iss;
  }
};

TEST(Host, AcceptsOnListeningPort) {
  Harness h;
  h.host->receive(h.make(40000, 9, kSyn, 1000, 0));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].tcp.flags & (kSyn | kAck), kSyn | kAck);
  EXPECT_EQ(h.out[0].ip.src, kServer);
  EXPECT_EQ(h.out[0].ip.dst, kClient);
  EXPECT_EQ(h.host->active_connections(), 1u);
  EXPECT_EQ(h.host->counters().connections_accepted, 1u);
}

TEST(Host, RstForClosedPortSynForm) {
  Harness h;
  h.host->receive(h.make(40000, 12345, kSyn, 777, 0));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_TRUE(h.out[0].tcp.is_rst());
  EXPECT_TRUE(h.out[0].tcp.is_ack());
  EXPECT_EQ(h.out[0].tcp.ack, 778u) << "RST acks seq + seq_len (SYN consumes one)";
  EXPECT_EQ(h.host->counters().rst_closed_port, 1u);
}

TEST(Host, RstForClosedPortAckForm) {
  Harness h;
  h.host->receive(h.make(40000, 12345, kAck, 500, 9999));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_TRUE(h.out[0].tcp.is_rst());
  EXPECT_EQ(h.out[0].tcp.seq, 9999u) << "RST seq mirrors the offending ACK";
}

TEST(Host, NoRstForRst) {
  Harness h;
  h.host->receive(h.make(40000, 12345, kRst, 1, 0));
  EXPECT_TRUE(h.out.empty()) << "never RST a RST";
}

TEST(Host, RstSuppressedWhenDisabled) {
  auto cfg = Harness::make_config();
  cfg.rst_closed_ports = false;
  Harness h{std::move(cfg)};
  h.host->receive(h.make(40000, 12345, kSyn, 1, 0));
  EXPECT_TRUE(h.out.empty());
}

TEST(Host, IgnoresPacketsForOtherAddresses) {
  Harness h;
  auto pkt = h.make(40000, 9, kSyn, 1, 0);
  pkt.ip.dst = Ipv4Address::from_octets(10, 0, 0, 99);
  h.host->receive(pkt);
  EXPECT_TRUE(h.out.empty());
  EXPECT_EQ(h.host->counters().packets_in, 0u);
}

TEST(Host, DemuxesConcurrentConnections) {
  Harness h;
  h.establish(40000, 9);
  h.establish(40001, 9);
  EXPECT_EQ(h.host->active_connections(), 2u);
  const ConnKey key1{9, kClient, 40000};
  const ConnKey key2{9, kClient, 40001};
  ASSERT_NE(h.host->find_endpoint(key1), nullptr);
  ASSERT_NE(h.host->find_endpoint(key2), nullptr);
  EXPECT_NE(h.host->find_endpoint(key1), h.host->find_endpoint(key2));
}

TEST(Host, EchoServerEchoes) {
  Harness h;
  const auto iss = h.establish(40000, 7);
  h.host->receive(h.make(40000, 7, kAck | kPsh, 1001, iss + 1, {'h', 'i'}));
  ASSERT_FALSE(h.out.empty());
  bool echoed = false;
  for (const auto& p : h.out) {
    if (p.payload == std::vector<std::uint8_t>{'h', 'i'}) echoed = true;
  }
  EXPECT_TRUE(echoed);
}

TEST(Host, ObjectServerServesPatternAndCloses) {
  Harness h;
  const auto iss = h.establish(40000, 80);
  h.host->receive(h.make(40000, 80, kAck | kPsh, 1001, iss + 1, {'G', 'E', 'T'}));
  // Collect the served object (client MSS 100 -> 10 segments) + FIN.
  std::vector<std::uint8_t> received;
  bool fin = false;
  // ACK each data segment so the 64 KiB default window never binds.
  std::size_t processed = 0;
  for (int rounds = 0; rounds < 50 && !fin; ++rounds) {
    const auto batch = h.out;
    h.out.clear();
    for (std::size_t i = processed; i < batch.size(); ++i) (void)0;
    processed = 0;
    for (const auto& p : batch) {
      if (!p.payload.empty()) {
        received.insert(received.end(), p.payload.begin(), p.payload.end());
        h.host->receive(h.make(40000, 80, kAck, 1004, p.tcp.seq + static_cast<std::uint32_t>(p.payload.size())));
      }
      if (p.tcp.is_fin()) fin = true;
    }
    h.loop.run_until(h.loop.now() + Duration::millis(50));
  }
  ASSERT_EQ(received.size(), 1000u);
  for (std::size_t i = 0; i < received.size(); ++i) {
    ASSERT_EQ(received[i], object_byte(i)) << "object byte " << i;
  }
  EXPECT_TRUE(fin) << "object server closes after serving";
}

TEST(Host, ObjectServerServesOnlyOnce) {
  Harness h;
  const auto iss = h.establish(40000, 80);
  h.host->receive(h.make(40000, 80, kAck | kPsh, 1001, iss + 1, {'G'}));
  const auto first_out = h.out.size();
  EXPECT_GT(first_out, 0u);
  h.host->receive(h.make(40000, 80, kAck | kPsh, 1002, iss + 1, {'G'}));
  // Second request byte yields at most an ACK, not another object.
  std::size_t data_packets = 0;
  for (const auto& p : h.out) {
    if (!p.payload.empty()) ++data_packets;
  }
  EXPECT_LE(data_packets, (1000u + 99) / 100) << "only one object's worth of segments";
}

TEST(Host, GlobalIpidStampsMonotonically) {
  Harness h;
  h.establish(40000, 9);
  h.host->receive(h.make(40000, 9, kAck | kPsh, 2001, 1, {1}));  // OOO -> dup ack
  h.host->receive(h.make(40000, 9, kAck | kPsh, 2001, 1, {1}));
  ASSERT_GE(h.out.size(), 2u);
  for (std::size_t i = 1; i < h.out.size(); ++i) {
    EXPECT_TRUE(ipid_lt(h.out[i - 1].ip.identification, h.out[i].ip.identification));
  }
}

TEST(Host, ConstantZeroIpidSetsDf) {
  auto cfg = Harness::make_config();
  cfg.ipid_policy = IpidPolicy::kConstantZero;
  Harness h{std::move(cfg)};
  h.host->receive(h.make(40000, 9, kSyn, 1000, 0));
  ASSERT_EQ(h.out.size(), 1u);
  EXPECT_EQ(h.out[0].ip.identification, 0);
  EXPECT_TRUE(h.out[0].ip.dont_fragment);
}

TEST(Host, ClosedEndpointIsReaped) {
  Harness h;
  const auto iss = h.establish(40000, 9);
  h.host->receive(h.make(40000, 9, kRst, 1001, iss + 1));
  EXPECT_EQ(h.host->active_connections(), 1u) << "reap is deferred one event";
  h.loop.run();
  EXPECT_EQ(h.host->active_connections(), 0u);
}

TEST(Host, DiscardClosesWhenClientCloses) {
  Harness h;
  const auto iss = h.establish(40000, 9);
  h.host->receive(h.make(40000, 9, kFin | kAck, 1001, iss + 1));
  // Host ACKs the FIN and sends its own FIN.
  bool sent_fin = false;
  for (const auto& p : h.out) sent_fin |= p.tcp.is_fin();
  EXPECT_TRUE(sent_fin);
}

TEST(Host, ObjectGeneratorIsDeterministic) {
  const auto obj = make_object(16);
  for (std::size_t i = 0; i < obj.size(); ++i) EXPECT_EQ(obj[i], object_byte(i));
}

}  // namespace
}  // namespace reorder::tcpip
