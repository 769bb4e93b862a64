// Tests for the ICMP substrate, the Bennett-style ping-burst baseline,
// and IPv4 fragmentation/reassembly.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ping_burst_test.hpp"
#include "core/test_registry.hpp"
#include "core/testbed.hpp"
#include "tcpip/fragment.hpp"
#include "tcpip/icmp.hpp"
#include "util/random.hpp"

namespace reorder {
namespace {

using util::Duration;

// ---------- ICMP codec ----------

TEST(IcmpCodec, RoundTripWithChecksum) {
  tcpip::Packet pkt;
  pkt.ip.src = tcpip::Ipv4Address::from_octets(10, 0, 0, 1);
  pkt.ip.dst = tcpip::Ipv4Address::from_octets(10, 0, 0, 2);
  pkt.ip.protocol = tcpip::IpProto::kIcmp;
  pkt.icmp = tcpip::IcmpEcho{tcpip::IcmpType::kEchoRequest, 0x1234, 7};
  pkt.payload.assign(48, 0x5a);

  const auto wire = pkt.to_wire();
  EXPECT_EQ(wire.size(), 20u + 8u + 48u);
  const auto back = tcpip::Packet::from_wire(wire);
  EXPECT_TRUE(back.checksums_ok);
  ASSERT_TRUE(back.packet.icmp.has_value());
  EXPECT_EQ(back.packet.icmp->type, tcpip::IcmpType::kEchoRequest);
  EXPECT_EQ(back.packet.icmp->identifier, 0x1234);
  EXPECT_EQ(back.packet.icmp->sequence, 7);
  EXPECT_EQ(back.packet.payload.size(), 48u);
}

TEST(IcmpCodec, CorruptionDetected) {
  tcpip::Packet pkt;
  pkt.ip.protocol = tcpip::IpProto::kIcmp;
  pkt.icmp = tcpip::IcmpEcho{tcpip::IcmpType::kEchoReply, 1, 2};
  pkt.payload = {1, 2, 3};
  auto wire = pkt.to_wire();
  wire.back() ^= 0xff;
  EXPECT_FALSE(tcpip::Packet::from_wire(wire).checksums_ok);
}

TEST(IcmpCodec, DescribeAndHelpers) {
  tcpip::Packet pkt;
  pkt.ip.protocol = tcpip::IpProto::kIcmp;
  pkt.icmp = tcpip::IcmpEcho{tcpip::IcmpType::kEchoRequest, 9, 12};
  EXPECT_TRUE(pkt.is_icmp());
  EXPECT_NE(pkt.describe().find("echo-request"), std::string::npos);
  tcpip::Packet tcp;
  EXPECT_FALSE(tcp.is_icmp());
}

// ---------- host echo behaviour ----------

TEST(HostEcho, RepliesWithMirroredPayload) {
  core::Testbed bed{core::TestbedConfig{}};
  std::optional<tcpip::Packet> reply;
  bed.probe().register_icmp(bed.remote_addr(), [&](const tcpip::Packet& pkt) { reply = pkt; });

  tcpip::Packet req;
  req.ip.src = bed.probe().address();
  req.ip.dst = bed.remote_addr();
  req.ip.protocol = tcpip::IpProto::kIcmp;
  req.icmp = tcpip::IcmpEcho{tcpip::IcmpType::kEchoRequest, 77, 3};
  req.payload = {9, 8, 7};
  bed.probe().send(std::move(req));
  bed.loop().run();

  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->icmp->type, tcpip::IcmpType::kEchoReply);
  EXPECT_EQ(reply->icmp->identifier, 77);
  EXPECT_EQ(reply->icmp->sequence, 3);
  EXPECT_EQ(reply->payload, (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(bed.remote().counters().echo_replies, 1u);
}

TEST(HostEcho, SilentWhenDisabled) {
  core::TestbedConfig cfg;
  cfg.remote = core::default_remote_config();
  cfg.remote.respond_to_ping = false;
  core::Testbed bed{cfg};
  int replies = 0;
  bed.probe().register_icmp(bed.remote_addr(), [&](const tcpip::Packet&) { ++replies; });
  tcpip::Packet req;
  req.ip.src = bed.probe().address();
  req.ip.dst = bed.remote_addr();
  req.ip.protocol = tcpip::IpProto::kIcmp;
  req.icmp = tcpip::IcmpEcho{tcpip::IcmpType::kEchoRequest, 1, 1};
  bed.probe().send(std::move(req));
  bed.loop().run();
  EXPECT_EQ(replies, 0);
}

TEST(HostEcho, RateLimitCapsRepliesPerWindow) {
  core::TestbedConfig cfg;
  cfg.remote = core::default_remote_config();
  cfg.remote.ping_rate_limit_per_sec = 3;
  core::Testbed bed{cfg};
  int replies = 0;
  bed.probe().register_icmp(bed.remote_addr(), [&](const tcpip::Packet&) { ++replies; });

  auto send_burst = [&](std::uint16_t base) {
    for (int i = 0; i < 10; ++i) {
      tcpip::Packet req;
      req.ip.src = bed.probe().address();
      req.ip.dst = bed.remote_addr();
      req.ip.protocol = tcpip::IpProto::kIcmp;
      req.icmp =
          tcpip::IcmpEcho{tcpip::IcmpType::kEchoRequest, 5, static_cast<std::uint16_t>(base + i)};
      bed.probe().send(std::move(req));
    }
  };
  send_burst(0);
  bed.loop().run();
  EXPECT_EQ(replies, 3);
  EXPECT_EQ(bed.remote().counters().echo_rate_limited, 7u);
  // A fresh one-second window refills the budget.
  bed.loop().advance(Duration::seconds(2));
  send_burst(100);
  bed.loop().run();
  EXPECT_EQ(replies, 6);
}

// ---------- ping-burst baseline ----------

core::PingBurstResult run_bursts(core::Testbed& bed, int burst_size, int bursts) {
  core::PingBurstOptions opts;
  opts.burst_size = burst_size;
  auto ping = core::TestRegistry::global().create_as<core::PingBurstTest>(
      bed.probe(), bed.remote_addr(), core::TestSpec{"ping-burst", 0, opts});
  core::TestRunConfig run;
  run.samples = bursts;
  run.sample_spacing = Duration::millis(30);
  (void)bed.run_sync(*ping, run, /*deadline_s=*/300);
  return ping->last_burst_result();
}

TEST(PingBurst, CleanPathShowsNoReordering) {
  core::TestbedConfig cfg;
  cfg.seed = 601;
  core::Testbed bed{cfg};
  const auto r = run_bursts(bed, 5, 40);
  EXPECT_EQ(r.bursts, 40);
  EXPECT_EQ(r.bursts_complete, 40);
  EXPECT_EQ(r.bursts_with_reordering, 0);
  EXPECT_EQ(r.requests_sent, 200u);
  EXPECT_EQ(r.replies_received, 200u);
  EXPECT_DOUBLE_EQ(r.pair_rate(), 0.0);
}

TEST(PingBurst, DetectsReorderingOnEitherPath) {
  for (const bool forward : {true, false}) {
    core::TestbedConfig cfg;
    cfg.seed = 602 + (forward ? 1 : 0);
    (forward ? cfg.forward : cfg.reverse).swap_probability = 0.5;
    core::Testbed bed{cfg};
    const auto r = run_bursts(bed, 5, 60);
    EXPECT_GT(r.bursts_with_reordering, 30) << (forward ? "forward" : "reverse");
  }
}

TEST(PingBurst, CannotAttributeDirection) {
  // The §II critique as a property: a forward-only and a reverse-only path
  // with the same swap probability produce statistically indistinguishable
  // ping estimates.
  auto rate_for = [](double fwd, double rev, std::uint64_t seed) {
    core::TestbedConfig cfg;
    cfg.seed = seed;
    cfg.forward.swap_probability = fwd;
    cfg.reverse.swap_probability = rev;
    core::Testbed bed{cfg};
    return run_bursts(bed, 2, 600).pair_rate();
  };
  const double fwd_only = rate_for(0.2, 0.0, 604);
  const double rev_only = rate_for(0.0, 0.2, 605);
  EXPECT_NEAR(fwd_only, rev_only, 0.06);
  EXPECT_GT(fwd_only, 0.1);
}

TEST(PingBurst, BurstSizeChangesTheBurstMetric) {
  // "fraction of bursts with >= 1 event" grows with burst length even
  // though the path is unchanged — the paper's metric critique.
  core::TestbedConfig cfg;
  cfg.seed = 606;
  cfg.forward.swap_probability = 0.05;
  core::Testbed bed{cfg};
  const auto small = run_bursts(bed, 5, 80);
  const auto large = run_bursts(bed, 50, 20);
  EXPECT_GT(large.burst_reorder_fraction(), small.burst_reorder_fraction() + 0.2);
}

TEST(PingBurst, LossYieldsIncompleteBursts) {
  core::TestbedConfig cfg;
  cfg.seed = 607;
  cfg.forward.loss_probability = 0.3;
  core::Testbed bed{cfg};
  const auto r = run_bursts(bed, 5, 40);
  EXPECT_LT(r.bursts_complete, r.bursts);
  EXPECT_LT(r.replies_received, r.requests_sent);
}

// ---------- fragmentation / reassembly ----------

tcpip::Packet sample_segment(std::size_t payload_size) {
  tcpip::Packet pkt;
  pkt.ip.src = tcpip::Ipv4Address::from_octets(10, 0, 0, 1);
  pkt.ip.dst = tcpip::Ipv4Address::from_octets(10, 0, 0, 2);
  pkt.ip.identification = 0xbeef;
  pkt.tcp.src_port = 40000;
  pkt.tcp.dst_port = 80;
  pkt.tcp.flags = tcpip::kAck | tcpip::kPsh;
  pkt.payload.resize(payload_size);
  for (std::size_t i = 0; i < payload_size; ++i) {
    pkt.payload[i] = static_cast<std::uint8_t>(i * 13);
  }
  return pkt;
}

TEST(Fragment, SmallDatagramPassesThrough) {
  const auto wire = sample_segment(100).to_wire();
  const auto frags = tcpip::fragment_datagram(wire, 576);
  ASSERT_EQ(frags.size(), 1u);
  EXPECT_EQ(frags[0], wire);
}

TEST(Fragment, SplitsRespectMtuAndEightByteAlignment) {
  const auto wire = sample_segment(1000).to_wire();
  const auto frags = tcpip::fragment_datagram(wire, 576);
  ASSERT_GT(frags.size(), 1u);
  for (const auto& frag : frags) EXPECT_LE(frag.size(), 576u);
  // The first fragment carries the TCP header but only part of the
  // payload, so its TCP checksum cannot validate standalone — only the
  // reassembled datagram's does. That is real fragment semantics.
  const auto first = tcpip::Packet::from_wire(frags[0]);
  EXPECT_EQ(first.packet.tcp.src_port, 40000);
  EXPECT_FALSE(first.checksums_ok);
  const auto whole = tcpip::reassemble_datagram(frags);
  ASSERT_TRUE(whole.has_value());
  EXPECT_TRUE(tcpip::Packet::from_wire(*whole).checksums_ok);
  // All fragments carry the original identification; offsets are 8-aligned
  // and MF is set on all but the last.
  for (std::size_t i = 0; i < frags.size(); ++i) {
    util::ByteReader r{frags[i]};
    const auto h = tcpip::Ipv4Header::parse(r);
    EXPECT_TRUE(h.checksum_ok);
    EXPECT_EQ(h.header.identification, 0xbeef);
    EXPECT_EQ(h.header.more_fragments, i + 1 < frags.size());
    if (i > 0) {
      EXPECT_GT(h.header.fragment_offset, 0);
    }
  }
}

TEST(Fragment, RoundTripInAnyOrder) {
  const auto wire = sample_segment(2000).to_wire();
  auto frags = tcpip::fragment_datagram(wire, 300);
  ASSERT_GE(frags.size(), 3u);
  util::Rng rng{5};
  for (std::size_t i = frags.size(); i > 1; --i) {
    std::swap(frags[i - 1], frags[rng.below(i)]);
  }
  const auto whole = tcpip::reassemble_datagram(frags);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, wire) << "reassembly must reproduce the original datagram exactly";
  const auto back = tcpip::Packet::from_wire(*whole);
  EXPECT_TRUE(back.checksums_ok);
  EXPECT_EQ(back.packet.payload.size(), 2000u);
}

TEST(Fragment, DfSuppressesFragmentation) {
  auto pkt = sample_segment(1000);
  pkt.ip.dont_fragment = true;
  const auto frags = tcpip::fragment_datagram(pkt.to_wire(), 576);
  EXPECT_TRUE(frags.empty()) << "DF + oversize = drop (PMTUD signal)";
}

TEST(Fragment, MissingFragmentFailsReassembly) {
  const auto wire = sample_segment(2000).to_wire();
  auto frags = tcpip::fragment_datagram(wire, 300);
  ASSERT_GE(frags.size(), 3u);
  frags.erase(frags.begin() + 1);
  EXPECT_FALSE(tcpip::reassemble_datagram(frags).has_value());
}

TEST(Fragment, MixedIdentificationsRejected) {
  const auto a = tcpip::fragment_datagram(sample_segment(600).to_wire(), 300);
  auto b_pkt = sample_segment(600);
  b_pkt.ip.identification = 0x1111;
  const auto b = tcpip::fragment_datagram(b_pkt.to_wire(), 300);
  std::vector<std::vector<std::uint8_t>> mixed{a[0], b[1]};
  EXPECT_FALSE(tcpip::reassemble_datagram(mixed).has_value());
}

TEST(Fragment, DuplicateFragmentTolerated) {
  const auto wire = sample_segment(900).to_wire();
  auto frags = tcpip::fragment_datagram(wire, 400);
  frags.push_back(frags[0]);  // retransmitted fragment
  const auto whole = tcpip::reassemble_datagram(frags);
  ASSERT_TRUE(whole.has_value());
  EXPECT_EQ(*whole, wire);
}

TEST(Fragment, EmptyInputRejected) {
  EXPECT_FALSE(tcpip::reassemble_datagram({}).has_value());
}

}  // namespace
}  // namespace reorder
