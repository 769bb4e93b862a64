// Tests for the reordering processes: the dummynet-style SwapShaper, the
// interrupt coalescer's pending window and the striped multi-link model.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "netsim/coalescer.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/striped_link.hpp"
#include "netsim/swap_shaper.hpp"

namespace reorder::sim {
namespace {

using util::Duration;

tcpip::Packet make_packet(std::uint64_t uid) {
  tcpip::Packet pkt;
  pkt.uid = uid;
  return pkt;
}

struct Capture {
  std::vector<std::uint64_t> order;
  PacketSink sink() {
    return [this](tcpip::Packet p) { order.push_back(p.uid); };
  }
};

// ---------- SwapShaper ----------

TEST(SwapShaper, ZeroProbabilityNeverSwaps) {
  EventLoop loop;
  SwapShaper shaper{loop, SwapShaperConfig{0.0, Duration::millis(50)}, util::Rng{1}};
  Capture cap;
  shaper.connect(cap.sink());
  for (std::uint64_t i = 1; i <= 100; ++i) shaper.accept(make_packet(i));
  loop.run();
  ASSERT_EQ(cap.order.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(cap.order[i], i + 1);
  EXPECT_EQ(shaper.swaps_completed(), 0u);
}

TEST(SwapShaper, CertainSwapExchangesAdjacentPair) {
  EventLoop loop;
  SwapShaper shaper{loop, SwapShaperConfig{1.0, Duration::millis(50)}, util::Rng{1}};
  Capture cap;
  shaper.connect(cap.sink());
  shaper.accept(make_packet(1));
  shaper.accept(make_packet(2));
  loop.run();
  ASSERT_EQ(cap.order.size(), 2u);
  EXPECT_EQ(cap.order[0], 2u);
  EXPECT_EQ(cap.order[1], 1u);
  EXPECT_EQ(shaper.swaps_completed(), 1u);
}

TEST(SwapShaper, HeldPacketReleasedOnTimeout) {
  EventLoop loop;
  SwapShaper shaper{loop, SwapShaperConfig{1.0, Duration::millis(10)}, util::Rng{1}};
  Capture cap;
  shaper.connect(cap.sink());
  shaper.accept(make_packet(1));  // held, no successor
  loop.run();
  ASSERT_EQ(cap.order.size(), 1u);
  EXPECT_EQ(cap.order[0], 1u);
  EXPECT_EQ(shaper.holds_timed_out(), 1u);
  EXPECT_EQ(loop.now().ns(), Duration::millis(10).ns()) << "released exactly at max_hold";
}

TEST(SwapShaper, PairSpacedBeyondHoldIsNotSwapped) {
  EventLoop loop;
  SwapShaper shaper{loop, SwapShaperConfig{1.0, Duration::millis(10)}, util::Rng{1}};
  Capture cap;
  shaper.connect(cap.sink());
  shaper.accept(make_packet(1));
  loop.advance(Duration::millis(20));  // hold expires at 10 ms
  shaper.accept(make_packet(2));
  loop.run();
  // Packet 2 gets held in turn; it times out and arrives later.
  ASSERT_EQ(cap.order.size(), 2u);
  EXPECT_EQ(cap.order[0], 1u);
  EXPECT_EQ(cap.order[1], 2u);
}

TEST(SwapShaper, NeverHoldsTwoPackets) {
  EventLoop loop;
  SwapShaper shaper{loop, SwapShaperConfig{1.0, Duration::millis(50)}, util::Rng{1}};
  Capture cap;
  shaper.connect(cap.sink());
  for (std::uint64_t i = 1; i <= 6; ++i) shaper.accept(make_packet(i));
  loop.run();
  // p=1.0: (2,1), (4,3), (6,5) — strict pairwise exchange.
  EXPECT_EQ(cap.order, (std::vector<std::uint64_t>{2, 1, 4, 3, 6, 5}));
}

// A stage owns its pending event: destroying the stage cancels it, so the
// loop never runs it on the destroyed stage.
TEST(SwapShaper, DestroyingItCancelsTheHeldPacketsRelease) {
  EventLoop loop;
  Capture cap;
  {
    SwapShaper shaper{loop, SwapShaperConfig{1.0, Duration::millis(10)}, util::Rng{1}};
    shaper.connect(cap.sink());
    shaper.accept(make_packet(1));  // held: its release is pending
    EXPECT_EQ(loop.pending(), 1u);
  }
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_TRUE(cap.order.empty());
}

TEST(InterruptCoalescer, DestroyingItCancelsTheOpenWindow) {
  EventLoop loop;
  Capture cap;
  {
    InterruptCoalescer coalescer{loop, InterruptCoalescerConfig{}, util::Rng{1}};
    coalescer.connect(cap.sink());
    coalescer.accept(make_packet(1));  // opens the window: its flush is pending
    EXPECT_EQ(loop.pending(), 1u);
  }
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.run(), 0u);
  EXPECT_TRUE(cap.order.empty());
}

TEST(SwapShaper, SetProbabilityAtRuntime) {
  EventLoop loop;
  SwapShaper shaper{loop, SwapShaperConfig{0.0, Duration::millis(50)}, util::Rng{1}};
  EXPECT_DOUBLE_EQ(shaper.swap_probability(), 0.0);
  shaper.set_swap_probability(0.25);
  EXPECT_DOUBLE_EQ(shaper.swap_probability(), 0.25);
}

class SwapShaperRate : public ::testing::TestWithParam<double> {};

TEST_P(SwapShaperRate, PairExchangeRateMatchesP) {
  // Send isolated pairs (spaced beyond max_hold) and count exchanges:
  // the exchange probability of a pair equals the configured p.
  const double p = GetParam();
  EventLoop loop;
  SwapShaper shaper{loop, SwapShaperConfig{p, Duration::millis(5)}, util::Rng{97}};
  Capture cap;
  shaper.connect(cap.sink());
  const int pairs = 4000;
  int exchanged = 0;
  for (int k = 0; k < pairs; ++k) {
    cap.order.clear();
    shaper.accept(make_packet(1));
    shaper.accept(make_packet(2));
    loop.run();
    ASSERT_EQ(cap.order.size(), 2u);
    if (cap.order[0] == 2) ++exchanged;
    loop.advance(Duration::millis(20));
  }
  const double rate = static_cast<double>(exchanged) / pairs;
  EXPECT_NEAR(rate, p, 3.5 * std::sqrt(p * (1 - p) / pairs) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PaperRates, SwapShaperRate,
                         ::testing::Values(0.01, 0.03, 0.05, 0.10, 0.15, 0.40));

// ---------- StripedLink ----------

StripedLinkConfig fast_striped() {
  StripedLinkConfig cfg;  // the Fig. 7-calibrated defaults
  cfg.lanes = 2;
  cfg.lane_bandwidth_bps = 100'000'000;
  cfg.propagation = Duration::micros(10);
  return cfg;
}

double overtake_rate(Duration gap, std::uint64_t seed, int pairs = 3000) {
  EventLoop loop;
  StripedLink link{loop, fast_striped(), util::Rng{seed}};
  Capture cap;
  link.connect(cap.sink());
  int reordered = 0;
  for (int k = 0; k < pairs; ++k) {
    cap.order.clear();
    link.accept(make_packet(1));
    if (gap.is_zero()) {
      link.accept(make_packet(2));
    } else {
      loop.schedule(gap, [&] { link.accept(make_packet(2)); });
    }
    loop.run();
    if (cap.order.size() == 2 && cap.order[0] == 2) ++reordered;
    loop.advance(Duration::millis(5));  // drain lane backlogs between pairs
  }
  return static_cast<double>(reordered) / pairs;
}

TEST(StripedLink, BackToBackPairsDoReorder) {
  EXPECT_GT(overtake_rate(Duration::nanos(0), 7), 0.02);
}

TEST(StripedLink, ReorderingDecaysWithGap) {
  const double r0 = overtake_rate(Duration::nanos(0), 11);
  const double r50 = overtake_rate(Duration::micros(50), 11);
  const double r250 = overtake_rate(Duration::micros(250), 11);
  EXPECT_GT(r0, r50) << "wider gaps must reorder less (paper Fig. 7)";
  EXPECT_GT(r50, r250 - 0.005);
  EXPECT_LT(r250, 0.02) << "at 250us the process has essentially died out";
}

TEST(StripedLink, NoContentionMeansNoReordering) {
  EventLoop loop;
  auto cfg = fast_striped();
  cfg.contention_probability = 0.0;
  StripedLink link{loop, cfg, util::Rng{3}};
  Capture cap;
  link.connect(cap.sink());
  for (int k = 0; k < 500; ++k) {
    link.accept(make_packet(1));
    link.accept(make_packet(2));
    loop.run();
    loop.advance(Duration::millis(1));
  }
  // Without backlog draws the two lanes are symmetric and equally loaded:
  // order is preserved.
  for (std::size_t i = 0; i + 1 < cap.order.size(); i += 2) {
    ASSERT_EQ(cap.order[i], 1u);
    ASSERT_EQ(cap.order[i + 1], 2u);
  }
}

TEST(StripedLink, CountsForwarded) {
  EventLoop loop;
  StripedLink link{loop, fast_striped(), util::Rng{5}};
  Capture cap;
  link.connect(cap.sink());
  for (std::uint64_t i = 0; i < 10; ++i) link.accept(make_packet(i));
  loop.run();
  EXPECT_EQ(link.forwarded(), 10u);
  EXPECT_EQ(cap.order.size(), 10u);
}

}  // namespace
}  // namespace reorder::sim
