// Timing and ordering tests for the basic path stages.
#include <gtest/gtest.h>

#include <vector>

#include "netsim/event_loop.hpp"
#include "netsim/link.hpp"

namespace reorder::sim {
namespace {

using util::Duration;
using util::TimePoint;

tcpip::Packet make_packet(std::size_t payload_bytes, std::uint64_t uid) {
  tcpip::Packet pkt;
  pkt.payload.assign(payload_bytes, 0xaa);
  pkt.uid = uid;
  return pkt;
}

struct Capture {
  std::vector<std::pair<std::uint64_t, TimePoint>> arrivals;
  PacketSink sink(EventLoop& loop) {
    return [this, &loop](tcpip::Packet p) { arrivals.emplace_back(p.uid, loop.now()); };
  }
};

TEST(LinkStage, SerializationPlusPropagation) {
  EventLoop loop;
  LinkParams params;
  params.bandwidth_bps = 8'000'000;  // 1 byte/us
  params.propagation = Duration::millis(5);
  LinkStage link{loop, params};
  Capture cap;
  link.connect(cap.sink(loop));

  // 40-byte wire size: 20 IP + 20 TCP + 0 payload.
  link.accept(make_packet(0, 1));
  loop.run();
  ASSERT_EQ(cap.arrivals.size(), 1u);
  EXPECT_EQ(cap.arrivals[0].second.ns(), Duration::micros(40).ns() + Duration::millis(5).ns());
  EXPECT_EQ(link.forwarded(), 1u);
}

TEST(LinkStage, BackToBackPacketsQueueBehindEachOther) {
  EventLoop loop;
  LinkParams params;
  params.bandwidth_bps = 8'000'000;
  params.propagation = Duration::nanos(0);
  LinkStage link{loop, params};
  Capture cap;
  link.connect(cap.sink(loop));

  link.accept(make_packet(0, 1));  // 40 us serialization
  link.accept(make_packet(0, 2));
  loop.run();
  ASSERT_EQ(cap.arrivals.size(), 2u);
  EXPECT_EQ(cap.arrivals[0].second.ns(), Duration::micros(40).ns());
  EXPECT_EQ(cap.arrivals[1].second.ns(), Duration::micros(80).ns())
      << "second packet waits for the first";
}

TEST(LinkStage, PreservesOrder) {
  EventLoop loop;
  LinkParams params;
  LinkStage link{loop, params};
  Capture cap;
  link.connect(cap.sink(loop));
  for (std::uint64_t i = 1; i <= 50; ++i) link.accept(make_packet(i % 7, i));
  loop.run();
  ASSERT_EQ(cap.arrivals.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(cap.arrivals[i].first, i + 1);
}

TEST(LinkStage, DropsWhenQueueFull) {
  EventLoop loop;
  LinkParams params;
  params.bandwidth_bps = 8'000;  // very slow: 40 ms per 40-byte packet
  params.queue_limit_packets = 3;
  LinkStage link{loop, params};
  Capture cap;
  link.connect(cap.sink(loop));
  for (std::uint64_t i = 1; i <= 10; ++i) link.accept(make_packet(0, i));
  loop.run();
  EXPECT_EQ(cap.arrivals.size(), 3u);
  EXPECT_EQ(link.dropped(), 7u);
}

TEST(LinkStage, InfiniteBandwidthSkipsSerialization) {
  EventLoop loop;
  LinkParams params;
  params.bandwidth_bps = 0;
  params.propagation = Duration::millis(1);
  LinkStage link{loop, params};
  Capture cap;
  link.connect(cap.sink(loop));
  link.accept(make_packet(1000, 1));
  loop.run();
  EXPECT_EQ(cap.arrivals[0].second.ns(), Duration::millis(1).ns());
}

TEST(LinkStage, SerializationTimeHelper) {
  EventLoop loop;
  LinkParams params;
  params.bandwidth_bps = 1'000'000;
  LinkStage link{loop, params};
  EXPECT_EQ(link.serialization_time(125).us(), 1000);  // 1000 bits at 1 Mbps
}

TEST(DelayStage, AddsExactDelay) {
  EventLoop loop;
  DelayStage stage{loop, Duration::micros(123)};
  Capture cap;
  stage.connect(cap.sink(loop));
  stage.accept(make_packet(0, 1));
  loop.run();
  EXPECT_EQ(cap.arrivals[0].second.ns(), Duration::micros(123).ns());
}

// A stage's downstream may send straight back into the stage while the
// packet it was handed is still being delivered (a hairpin: a host that
// answers on the path it listens on). The delivered packet stays intact
// however many packets the stage then holds.
template <class S>
void expect_hairpin_keeps_the_delivered_packet(EventLoop& loop, S& stage) {
  std::vector<std::uint64_t> arrivals;
  stage.connect([&](tcpip::Packet&& pkt) {
    if (pkt.uid <= 4) stage.accept(make_packet(8, pkt.uid + 100));
    arrivals.push_back(pkt.uid);
    EXPECT_EQ(pkt.payload.size(), 8u) << pkt.uid;
  });
  for (std::uint64_t uid = 1; uid <= 4; ++uid) stage.accept(make_packet(8, uid));
  loop.run();
  EXPECT_EQ(arrivals, (std::vector<std::uint64_t>{1, 2, 3, 4, 101, 102, 103, 104}));
}

TEST(LinkStage, DownstreamMaySendBackIntoTheLinkMidDelivery) {
  EventLoop loop;
  LinkStage link{loop, LinkParams{}};
  expect_hairpin_keeps_the_delivered_packet(loop, link);
}

// The packet being delivered has left the queue, as a packet leaves a
// real link's buffer once it is on the wire: with the queue full, the
// hairpin send finds room for one, and a packet beyond the limit is still
// dropped.
TEST(LinkStage, PacketBeingDeliveredNoLongerCountsTowardTheQueueLimit) {
  EventLoop loop;
  LinkParams params;
  params.queue_limit_packets = 4;  // the helper's four packets fill it
  LinkStage link{loop, params};
  expect_hairpin_keeps_the_delivered_packet(loop, link);
  EXPECT_EQ(link.dropped(), 0u);

  link.connect([](tcpip::Packet&&) {});
  for (std::uint64_t uid = 1; uid <= 5; ++uid) link.accept(make_packet(8, uid));
  EXPECT_EQ(link.dropped(), 1u);
}

TEST(DelayStage, DownstreamMaySendBackIntoTheStageMidDelivery) {
  EventLoop loop;
  DelayStage stage{loop, Duration::micros(10)};
  expect_hairpin_keeps_the_delivered_packet(loop, stage);
}

TEST(JitterStage, DelayWithinBounds) {
  EventLoop loop;
  JitterStage stage{loop, Duration::micros(100), Duration::micros(200), util::Rng{3}};
  Capture cap;
  stage.connect(cap.sink(loop));
  for (std::uint64_t i = 1; i <= 200; ++i) {
    stage.accept(make_packet(0, i));
    loop.run();
    const auto at = cap.arrivals.back().second;
    EXPECT_GE(at.ns() - loop.now().ns() + at.ns(), 0);  // sanity
    cap.arrivals.clear();
    loop.advance(Duration::millis(1));
  }
}

TEST(JitterStage, CanReorderClosePackets) {
  EventLoop loop;
  JitterStage stage{loop, Duration::micros(0), Duration::micros(500), util::Rng{11}};
  Capture cap;
  stage.connect(cap.sink(loop));
  int reordered = 0;
  for (int trial = 0; trial < 200; ++trial) {
    cap.arrivals.clear();
    stage.accept(make_packet(0, 1));
    stage.accept(make_packet(0, 2));
    loop.run();
    if (cap.arrivals.size() == 2 && cap.arrivals[0].first == 2) ++reordered;
    loop.advance(Duration::millis(10));
  }
  EXPECT_GT(reordered, 20) << "independent jitter reorders back-to-back packets often";
  EXPECT_LT(reordered, 180);
}

class LossRate : public ::testing::TestWithParam<double> {};

TEST_P(LossRate, EmpiricalRateNearP) {
  const double p = GetParam();
  EventLoop loop;
  LossStage stage{p, util::Rng{23}};
  Capture cap;
  stage.connect(cap.sink(loop));
  const int n = 20000;
  for (int i = 0; i < n; ++i) stage.accept(make_packet(0, static_cast<std::uint64_t>(i)));
  loop.run();
  const double measured = 1.0 - static_cast<double>(cap.arrivals.size()) / n;
  EXPECT_NEAR(measured, p, 0.02);
  EXPECT_EQ(stage.dropped(), n - cap.arrivals.size());
}

INSTANTIATE_TEST_SUITE_P(Sweep, LossRate, ::testing::Values(0.0, 0.01, 0.05, 0.2, 0.5));

TEST(StageNames, AreStable) {
  EventLoop loop;
  EXPECT_EQ(LinkStage(loop, {}).name(), "link");
  EXPECT_EQ(DelayStage(loop, Duration::millis(1)).name(), "delay");
  EXPECT_EQ(LossStage(0.1, util::Rng{1}).name(), "loss");
}

}  // namespace
}  // namespace reorder::sim
