// Golden tests for the sequence metrics against worked examples: RFC 4737
// (reordered ratio and extents), RFC 5236 (n-reordering), and Piratla's
// RD / RBD density examples, all hand-checked. Then a differential test
// of the extent and n-reordering metrics against independent oracles over
// sequences with duplicates, gaps, late and early arrivals, and a bound
// on their open per-flow state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/metrics.hpp"
#include "ingest/arrival_batch.hpp"
#include "ingest/pipeline.hpp"
#include "metrics/sequence_metrics.hpp"
#include "monitor/differential.hpp"
#include "util/random.hpp"

namespace reorder {
namespace {

using metrics::observe_sequence;

// RFC 4737 §4.2's style of example: packets sent 0..5, received
// 0, 1, 3, 4, 2, 5. Packet 2 arrives after 3 and 4: it is the only
// reordered packet, with extent 2 (the earliest larger-index arrival, 3,
// came two positions before it).
TEST(SequenceExtentGolden, Rfc4737WorkedExample) {
  metrics::SequenceExtentMetric m;
  observe_sequence(m, {0, 1, 3, 4, 2, 5});
  EXPECT_EQ(m.packets(), 6u);
  EXPECT_EQ(m.reordered(), 1u);
  EXPECT_DOUBLE_EQ(m.ratio(), 1.0 / 6.0);
  EXPECT_EQ(m.max_extent(), 2u);
  EXPECT_DOUBLE_EQ(m.mean_extent(), 2.0);
  // Two pairs are inverted: (3,2) and (4,2).
  EXPECT_EQ(m.inversions(), 2u);
  EXPECT_EQ(m.sequences(), 1u);
}

TEST(SequenceExtentGolden, InOrderAndFullyReversed) {
  metrics::SequenceExtentMetric in_order;
  observe_sequence(in_order, {0, 1, 2, 3, 4});
  EXPECT_EQ(in_order.reordered(), 0u);
  EXPECT_EQ(in_order.max_extent(), 0u);
  EXPECT_EQ(in_order.inversions(), 0u);

  // 4,3,2,1,0: every packet after the first is reordered; packet at
  // position i has extent i (the first arrival, 4, overtook them all).
  metrics::SequenceExtentMetric reversed;
  observe_sequence(reversed, {4, 3, 2, 1, 0});
  EXPECT_EQ(reversed.packets(), 5u);
  EXPECT_EQ(reversed.reordered(), 4u);
  EXPECT_EQ(reversed.max_extent(), 4u);
  EXPECT_DOUBLE_EQ(reversed.mean_extent(), (1.0 + 2.0 + 3.0 + 4.0) / 4.0);
  EXPECT_EQ(reversed.inversions(), 10u);  // C(5,2): every pair inverted
}

// RFC 5236 §4: a packet is n-reordered when the n arrivals immediately
// before it were all sent after it. Sent 0..4, received 2, 3, 0, 1, 4:
//   packet 0 (3rd arrival): preceded by 3, 2 — both later-sent -> n = 2;
//   packet 1 (4th arrival): preceded by 0 (earlier-sent) -> run stops,
//     but 0 < 1 means the run is 0... preceded immediately by 0, which
//     was sent earlier, so packet 1 is NOT n-reordered for any n >= 1.
TEST(NReorderingGolden, Rfc5236WorkedExample) {
  metrics::NReorderingMetric m;
  observe_sequence(m, {2, 3, 0, 1, 4});
  EXPECT_EQ(m.packets(), 5u);
  EXPECT_EQ(m.count_for(2), 1u);  // packet 0 is 2-reordered
  EXPECT_EQ(m.count_for(1), 0u);
  EXPECT_EQ(m.count_for(3), 0u);
  EXPECT_DOUBLE_EQ(m.reordered_fraction(), 1.0 / 5.0);
}

TEST(NReorderingGolden, AdjacentSwapIsOneReordering) {
  // 1, 0: packet 0 is preceded by exactly one later-sent packet.
  metrics::NReorderingMetric m;
  observe_sequence(m, {1, 0});
  EXPECT_EQ(m.count_for(1), 1u);
  EXPECT_DOUBLE_EQ(m.reordered_fraction(), 0.5);

  // 3, 2, 1, 0 arrivals: packet 2 is 1-reordered (preceded by 3), packet
  // 1 is 2-reordered, packet 0 is 3-reordered.
  metrics::NReorderingMetric reversed;
  observe_sequence(reversed, {3, 2, 1, 0});
  EXPECT_EQ(reversed.count_for(1), 1u);
  EXPECT_EQ(reversed.count_for(2), 1u);
  EXPECT_EQ(reversed.count_for(3), 1u);
}

TEST(NReorderingGolden, RunMustBeContiguous) {
  // 2, 0, 3, 1: packet 1 (last) is preceded by 3 (later-sent) then 0
  // (earlier-sent) — the contiguous later-sent run is length 1, even
  // though TWO later-sent packets (2 and 3) arrived before it.
  metrics::NReorderingMetric m;
  observe_sequence(m, {2, 0, 3, 1});
  EXPECT_EQ(m.count_for(1), 2u);  // packets 0 and 1 are both 1-reordered
  EXPECT_EQ(m.count_for(2), 0u);
}

// Piratla's reorder density: displacement D = arrival position - send
// index. Received 1, 0, 2: packet 1 arrives early (D = -1), packet 0
// late (D = +1), packet 2 on time (D = 0).
TEST(ReorderDensityGolden, AdjacentSwapDensities) {
  metrics::ReorderDensityMetric m;
  observe_sequence(m, {1, 0, 2});
  EXPECT_EQ(m.packets(), 3u);
  EXPECT_EQ(m.count_for(-1), 1u);
  EXPECT_EQ(m.count_for(0), 1u);
  EXPECT_EQ(m.count_for(1), 1u);
}

TEST(ReorderDensityGolden, DisplacementsClampAtThreshold) {
  metrics::ReorderDensityMetric m{/*threshold=*/2};
  // Packet 5 arrives first: displacement -5, clamped to -2.
  observe_sequence(m, {5, 0, 1, 2, 3, 4});
  EXPECT_EQ(m.count_for(-2), 1u);
  // Packets 0..4 each arrive one position late: displacement +1.
  EXPECT_EQ(m.count_for(1), 5u);
}

// Piratla's RBD: occupancy of a hypothetical resequencing buffer after
// each arrival. Received 2, 0, 1, 3:
//   2 -> buffered (occupancy 1); 0 -> released (1); 1 -> releases 1 and
//   the buffered 2 (0); 3 -> released (0).
TEST(BufferDensityGolden, ResequencingBufferOccupancy) {
  metrics::BufferDensityMetric m;
  observe_sequence(m, {2, 0, 1, 3});
  EXPECT_EQ(m.packets(), 4u);
  EXPECT_EQ(m.count_for(0), 2u);
  EXPECT_EQ(m.count_for(1), 2u);
  EXPECT_EQ(m.max_occupancy(), 1u);
}

TEST(BufferDensityGolden, DeepHoldback) {
  // 3, 2, 1, 0: three packets buffer up waiting for 0, then all flush.
  metrics::BufferDensityMetric m;
  observe_sequence(m, {3, 2, 1, 0});
  EXPECT_EQ(m.count_for(1), 1u);
  EXPECT_EQ(m.count_for(2), 1u);
  EXPECT_EQ(m.count_for(3), 1u);
  EXPECT_EQ(m.count_for(0), 1u);  // after 0 arrives, everything drains
  EXPECT_EQ(m.max_occupancy(), 3u);
}

// In-engine pair streams: each usable two-packet sample is the
// degenerate length-2 sequence, so a swapped pair is 1-reordering with
// extent 1 — the RFC metrics collapse onto the paper's pair metric.
TEST(SequenceMetrics, PairStreamCollapsesToPairMetric) {
  metrics::SequenceExtentMetric extent;
  metrics::NReorderingMetric n;
  for (int i = 0; i < 10; ++i) {
    const bool swapped = i % 3 == 0;  // 4 of 10 pairs
    if (swapped) {
      observe_sequence(extent, {1, 0});
      observe_sequence(n, {1, 0});
    } else {
      observe_sequence(extent, {0, 1});
      observe_sequence(n, {0, 1});
    }
  }
  EXPECT_EQ(extent.sequences(), 10u);
  EXPECT_EQ(extent.reordered(), 4u);
  EXPECT_EQ(extent.max_extent(), 1u);
  EXPECT_EQ(n.count_for(1), 4u);
}

// ------------------------------------------------ oracle differential

/// A random arrival sequence of 1..300 arrivals mixing in-order stretches,
/// gaps (lost packets), duplicates, late arrivals (below the running
/// maximum) and early ones (a jump ahead whose skipped indices may still
/// arrive late).
std::vector<std::uint32_t> mixed_arrival(util::Rng& rng) {
  const std::size_t n = 1 + rng.below(300);
  std::vector<std::uint32_t> out;
  std::vector<std::uint32_t> skipped;
  auto next = static_cast<std::uint32_t>(rng.below(4));
  while (out.size() < n) {
    switch (rng.below(6)) {
      case 0:
      case 1:
        for (auto k = 1 + rng.below(40); k > 0 && out.size() < n; --k) out.push_back(next++);
        break;
      case 2:
        next += static_cast<std::uint32_t>(1 + rng.below(4));
        break;
      case 3:
        if (!out.empty()) {
          out.push_back(out[out.size() - 1 - rng.below(std::min<std::size_t>(out.size(), 8))]);
        }
        break;
      case 4:
        if (!skipped.empty()) {
          const std::size_t k = rng.below(skipped.size());
          out.push_back(skipped[k]);
          skipped.erase(skipped.begin() + static_cast<std::ptrdiff_t>(k));
        } else if (next > 0) {
          out.push_back(static_cast<std::uint32_t>(rng.below(next)));
        }
        break;
      default: {
        const auto jump = static_cast<std::uint32_t>(1 + rng.below(12));
        for (std::uint32_t k = 0; k < jump; ++k) skipped.push_back(next + k);
        next += jump;
        out.push_back(next++);
        break;
      }
    }
  }
  return out;
}

/// RFC 5236 by brute force: an arrival's n counts the arrivals just
/// before it, back to the first one with a strictly smaller send index.
std::map<std::uint64_t, std::uint64_t> n_reordering_oracle(
    const std::vector<std::uint32_t>& arrival) {
  std::map<std::uint64_t, std::uint64_t> density;
  for (std::size_t i = 0; i < arrival.size(); ++i) {
    std::uint64_t n = 0;
    for (std::size_t k = i; k > 0 && arrival[k - 1] >= arrival[i]; --k) ++n;
    if (n > 0) ++density[n];
  }
  return density;
}

std::map<std::uint64_t, std::uint64_t> density_of(const metrics::NReorderingMetric& m) {
  std::map<std::uint64_t, std::uint64_t> density;
  const report::Json j = m.to_json();
  for (const report::Json& d : j.at("density").items()) {
    density[d.at("n").as_u64()] = d.at("count").as_u64();
  }
  return density;
}

// Each sequence goes through one suite arrival by arrival and through
// another as random-length observe_arrivals() spans, twice each, so the
// second pass reuses the metrics after end_sequence(). Both must match
// core::analyze_sequence (extent, inversions) and the brute-force RFC 5236
// count (n-reordering) after every pass.
TEST(SequenceMetricsOracle, MixedSequencesMatchIndependentOracles) {
  util::Rng rng{2207};
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<std::uint32_t> arrival = mixed_arrival(rng);
    const core::SequenceReorderStats extent_oracle = core::analyze_sequence(arrival);
    const std::map<std::uint64_t, std::uint64_t> n_oracle = n_reordering_oracle(arrival);

    metrics::MetricSuite scalar = ingest::SequenceEngine::default_suite();
    metrics::MetricSuite spans = ingest::SequenceEngine::default_suite();
    for (std::uint64_t pass = 1; pass <= 2; ++pass) {
      for (const std::uint32_t s : arrival) scalar.observe_arrival(s);
      scalar.end_sequence();
      for (std::size_t i = 0; i < arrival.size();) {
        const std::size_t len = 1 + rng.below(std::min<std::size_t>(arrival.size() - i, 40));
        spans.observe_arrivals(arrival.data() + i, len);
        i += len;
      }
      spans.end_sequence();

      for (const metrics::MetricSuite* suite : {&scalar, &spans}) {
        const char* feed = suite == &scalar ? "scalar" : "spans";
        const auto* e =
            suite->get<metrics::SequenceExtentMetric>(metrics::SequenceExtentMetric::kName);
        ASSERT_EQ(e->packets(), pass * extent_oracle.packets) << "trial " << trial << " " << feed;
        ASSERT_EQ(e->reordered(), pass * extent_oracle.reordered) << "trial " << trial << " " << feed;
        ASSERT_EQ(e->max_extent(), extent_oracle.max_extent) << "trial " << trial << " " << feed;
        ASSERT_DOUBLE_EQ(e->mean_extent(), extent_oracle.mean_extent)
            << "trial " << trial << " " << feed;
        ASSERT_EQ(e->inversions(), pass * extent_oracle.adjacent_swaps)
            << "trial " << trial << " " << feed;

        const auto* n = suite->get<metrics::NReorderingMetric>(metrics::NReorderingMetric::kName);
        ASSERT_EQ(n->packets(), pass * arrival.size()) << "trial " << trial << " " << feed;
        std::map<std::uint64_t, std::uint64_t> expected = n_oracle;
        for (auto& [k, count] : expected) count *= pass;
        ASSERT_EQ(density_of(*n), expected) << "trial " << trial << " " << feed;
      }
    }
  }
}

// Runs and intervals end in 64 bits: a stretch ending at 2^32 - 1 never
// continues into index 0.
TEST(SequenceMetricsOracle, RunsDoNotWrapAtTheTopIndex) {
  const std::vector<std::uint32_t> arrival{0xfffffffeu, 0xffffffffu, 0, 1};
  metrics::NReorderingMetric spans;
  observe_sequence(spans, arrival);
  metrics::NReorderingMetric scalar;
  for (const std::uint32_t s : arrival) scalar.observe_arrival(s);
  scalar.end_sequence();
  for (const metrics::NReorderingMetric* m : {&spans, &scalar}) {
    EXPECT_EQ(density_of(*m), n_reordering_oracle(arrival));
    EXPECT_EQ(m->count_for(2), 1u);  // 0 follows the two later-sent packets
  }

  metrics::ArrivalCounter counter;
  counter.record_run(0xfffffffeu, 2);
  const std::size_t one_interval = counter.state_bytes();
  counter.record(0);
  EXPECT_GT(counter.state_bytes(), one_interval);  // 0 opens an interval of its own
  EXPECT_EQ(counter.total(), 3u);
}

// ------------------------------------------------------ state bound

/// Both exact metrics' open-state bytes for one flow of `engine`.
std::pair<std::size_t, std::size_t> flow_state(const ingest::SequenceEngine& engine,
                                               std::uint64_t flow) {
  const metrics::MetricSuite* suite = engine.flow_suite(flow);
  return {suite->get<metrics::SequenceExtentMetric>(metrics::SequenceExtentMetric::kName)
              ->state_bytes(),
          suite->get<metrics::NReorderingMetric>(metrics::NReorderingMetric::kName)
              ->state_bytes()};
}

// An open in-order flow holds one run per structure however long it is:
// four flows fed through ingest_batch in runs of 16 hold the same bytes
// after 2^20 arrivals each as after 2^10.
TEST(SequenceStateBound, InOrderFlowStateIsFlat) {
  constexpr std::uint64_t kFlows = 4;
  constexpr std::uint32_t kRun = 16;
  ingest::SequenceEngine engine;
  ingest::ArrivalBatchBuilder builder{1024};
  std::uint32_t next = 0;
  const auto feed_until = [&](std::uint32_t end) {
    for (; next < end; next += kRun) {
      for (std::uint64_t flow = 1; flow <= kFlows; ++flow) {
        for (std::uint32_t i = 0; i < kRun; ++i) {
          if (builder.push(flow, next + i, 0)) engine.ingest_batch(builder.take());
        }
      }
    }
    if (builder.size() > 0) engine.ingest_batch(builder.take());
  };

  feed_until(1u << 10);
  std::vector<std::pair<std::size_t, std::size_t>> small;
  for (std::uint64_t flow = 1; flow <= kFlows; ++flow) small.push_back(flow_state(engine, flow));
  feed_until(1u << 20);
  ASSERT_EQ(engine.arrivals(), kFlows << 20);
  for (std::uint64_t flow = 1; flow <= kFlows; ++flow) {
    EXPECT_EQ(flow_state(engine, flow), small[flow - 1]) << "flow " << flow;
  }
}

// A lossy flow holds a run per gap: the `lossy` traffic model's 2% drops,
// four flows fed in runs of 16, each metric within 256 + 128 B per gap.
TEST(SequenceStateBound, LossyFlowStateGrowsWithGapsOnly) {
  monitor::TrafficOptions traffic;
  traffic.flows = 4;
  traffic.packets_per_flow = std::size_t{1} << 18;
  std::map<std::uint64_t, std::vector<std::uint32_t>> flows;
  for (const monitor::MonitorArrival& a : monitor::scenario_arrivals("lossy", 3, traffic)) {
    flows[a.flow].push_back(a.send_index);
  }
  ASSERT_EQ(flows.size(), traffic.flows);

  ingest::SequenceEngine engine;
  ingest::ArrivalBatchBuilder builder{1024};
  for (std::size_t at = 0; at < traffic.packets_per_flow; at += 16) {
    for (const auto& [flow, sends] : flows) {
      for (std::size_t i = at; i < std::min(at + 16, sends.size()); ++i) {
        if (builder.push(flow, sends[i], 0)) engine.ingest_batch(builder.take());
      }
    }
  }
  if (builder.size() > 0) engine.ingest_batch(builder.take());

  for (const auto& [flow, sends] : flows) {
    std::size_t gaps = 0;
    for (std::size_t i = 1; i < sends.size(); ++i) gaps += sends[i] != sends[i - 1] + 1;
    ASSERT_GT(gaps, 1000u);
    const auto [extent, n] = flow_state(engine, flow);
    EXPECT_LE(extent, 256 + 128 * gaps) << "flow " << flow;
    EXPECT_LE(n, 256 + 128 * gaps) << "flow " << flow;
  }
}

}  // namespace
}  // namespace reorder
