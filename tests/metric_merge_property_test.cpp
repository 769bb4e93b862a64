// Property tests for the Metric mergeability contract: for every metric,
// merging snapshots of arbitrary contiguous partitions of a stream is
// bit-identical (same to_json().dump()) to the single-pass batch result;
// and the streaming sequence implementations agree with the O(n^2) batch
// oracle core::analyze_sequence.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/result_sink.hpp"
#include "metrics/engine.hpp"
#include "metrics/pair_metrics.hpp"
#include "metrics/sequence_metrics.hpp"
#include "metrics/sketch.hpp"
#include "stats/ecdf.hpp"
#include "stats/histogram.hpp"
#include "util/random.hpp"

namespace reorder {
namespace {

using util::Duration;

core::SampleResult random_sample(util::Rng& rng) {
  core::SampleResult s;
  const auto pick = [&rng] {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.55) return core::Ordering::kInOrder;
    if (u < 0.80) return core::Ordering::kReordered;
    if (u < 0.92) return core::Ordering::kAmbiguous;
    return core::Ordering::kLost;
  };
  s.forward = pick();
  s.reverse = pick();
  const std::int64_t start = static_cast<std::int64_t>(rng.below(1'000'000));
  s.started = util::TimePoint::from_ns(start);
  s.completed = util::TimePoint::from_ns(start + static_cast<std::int64_t>(rng.below(5'000'000)));
  s.gap = Duration::micros(static_cast<std::int64_t>(rng.below(8)));
  return s;
}

core::TestRunResult random_result(util::Rng& rng, int samples) {
  core::TestRunResult r;
  r.test_name = "prop";
  r.admissible = rng.uniform(0.0, 1.0) > 0.15;
  for (int i = 0; i < samples; ++i) r.samples.push_back(random_sample(rng));
  r.aggregate();
  return r;
}

// Splits [0, n) into contiguous chunks at `cuts` random points.
std::vector<std::pair<std::size_t, std::size_t>> random_partition(util::Rng& rng, std::size_t n,
                                                                  std::size_t cuts) {
  std::vector<std::size_t> points{0, n};
  for (std::size_t i = 0; i < cuts; ++i) points.push_back(rng.below(n + 1));
  std::sort(points.begin(), points.end());
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i + 1 < points.size(); ++i) out.emplace_back(points[i], points[i + 1]);
  return out;
}

// Every metric in the default engine suite: merging per-shard engines
// over any contiguous split of the measurement stream reproduces the
// batch engine bit-for-bit.
TEST(MetricMergeProperty, EngineMergeEqualsBatchForRandomSplits) {
  util::Rng rng{1234};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<core::TestRunResult> stream;
    const std::size_t measurements = 3 + rng.below(12);
    for (std::size_t m = 0; m < measurements; ++m) {
      stream.push_back(random_result(rng, 4 + static_cast<int>(rng.below(12))));
    }

    metrics::MetricEngine batch;
    metrics::EngineSink batch_sink{batch};
    for (std::size_t m = 0; m < stream.size(); ++m) {
      core::publish_result(batch_sink, "host", "test", util::TimePoint::epoch(), stream[m], m);
    }

    metrics::MetricEngine merged;
    for (const auto& [begin, end] : random_partition(rng, stream.size(), 1 + rng.below(4))) {
      metrics::MetricEngine shard;
      metrics::EngineSink shard_sink{shard};
      for (std::size_t m = begin; m < end; ++m) {
        core::publish_result(shard_sink, "host", "test", util::TimePoint::epoch(), stream[m], m);
      }
      merged.merge(shard);
    }
    ASSERT_EQ(merged.to_json().dump(), batch.to_json().dump()) << "trial " << trial;
  }
}

// Sample-level metrics merge exactly under splits at ANY sample boundary
// (not just measurement boundaries).
TEST(MetricMergeProperty, SampleLevelMetricsMergeAtArbitrarySamplePoints) {
  util::Rng rng{777};
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<core::SampleResult> samples;
    const std::size_t n = 5 + rng.below(60);
    for (std::size_t i = 0; i < n; ++i) samples.push_back(random_sample(rng));

    const auto feed = [](metrics::MetricSuite& suite, const core::SampleResult* data,
                         std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        suite.observe(core::SampleEvent{"h", "t", 0, i, util::TimePoint::epoch(), data[i]});
      }
    };
    const auto make_suite = [] {
      metrics::MetricSuite suite;
      suite.add(std::make_unique<metrics::TimeDomainMetric>())
          .add(std::make_unique<metrics::LateTimeMetric>())
          .add(std::make_unique<metrics::LatencyHistogramMetric>());
      return suite;
    };

    metrics::MetricSuite batch = make_suite();
    feed(batch, samples.data(), 0, samples.size());

    metrics::MetricSuite merged = make_suite();
    for (const auto& [begin, end] : random_partition(rng, samples.size(), 1 + rng.below(5))) {
      metrics::MetricSuite shard = make_suite();
      feed(shard, samples.data(), begin, end);
      merged.merge(shard);
    }
    ASSERT_EQ(merged.to_json().dump(), batch.to_json().dump()) << "trial " << trial;
  }
}

std::vector<std::uint32_t> random_arrival(util::Rng& rng, std::size_t n) {
  std::vector<std::uint32_t> arrival(n);
  std::iota(arrival.begin(), arrival.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    // Mostly-local shuffles (realistic reordering) with occasional long
    // displacements.
    const std::size_t j = rng.bernoulli(0.8) ? i - 1 - std::min<std::size_t>(i - 1, rng.below(3))
                                             : rng.below(i);
    std::swap(arrival[i - 1], arrival[j]);
  }
  return arrival;
}

// The streaming RFC 4737 implementation agrees with the batch oracle.
TEST(MetricMergeProperty, SequenceExtentMatchesBatchOracle) {
  util::Rng rng{4242};
  for (int trial = 0; trial < 50; ++trial) {
    const auto arrival = random_arrival(rng, 1 + rng.below(80));
    const core::SequenceReorderStats oracle = core::analyze_sequence(arrival);

    metrics::SequenceExtentMetric streaming;
    metrics::observe_sequence(streaming, arrival);

    EXPECT_EQ(streaming.packets(), oracle.packets);
    EXPECT_EQ(streaming.reordered(), oracle.reordered);
    EXPECT_DOUBLE_EQ(streaming.ratio(), oracle.ratio);
    EXPECT_EQ(streaming.max_extent(), oracle.max_extent);
    EXPECT_DOUBLE_EQ(streaming.mean_extent(), oracle.mean_extent);
    EXPECT_EQ(streaming.inversions(), oracle.adjacent_swaps);
  }
}

// Sequence metrics merge exactly at sequence boundaries: feeding K
// sequences into one accumulator equals merging K per-sequence (or
// per-chunk) accumulators.
TEST(MetricMergeProperty, SequenceMetricsMergeAtSequenceBoundaries) {
  util::Rng rng{11};
  const auto make_suite = [] {
    metrics::MetricSuite suite;
    suite.add(std::make_unique<metrics::SequenceExtentMetric>())
        .add(std::make_unique<metrics::NReorderingMetric>())
        .add(std::make_unique<metrics::ReorderDensityMetric>())
        .add(std::make_unique<metrics::BufferDensityMetric>());
    return suite;
  };
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<std::vector<std::uint32_t>> sequences;
    const std::size_t k = 2 + rng.below(6);
    for (std::size_t i = 0; i < k; ++i) {
      sequences.push_back(random_arrival(rng, 1 + rng.below(40)));
    }

    metrics::MetricSuite batch = make_suite();
    for (const auto& seq : sequences) metrics::observe_sequence(batch, seq);

    metrics::MetricSuite merged = make_suite();
    for (const auto& [begin, end] : random_partition(rng, sequences.size(), 1 + rng.below(3))) {
      metrics::MetricSuite shard = make_suite();
      for (std::size_t i = begin; i < end; ++i) metrics::observe_sequence(shard, sequences[i]);
      merged.merge(shard);
    }
    ASSERT_EQ(merged.to_json().dump(), batch.to_json().dump()) << "trial " << trial;
  }
}

// Merging with an open (unclosed) sequence is a contract violation.
TEST(MetricMergeProperty, OpenSequenceRefusesToMerge) {
  metrics::SequenceExtentMetric a;
  metrics::SequenceExtentMetric b;
  b.observe_arrival(0);  // left open
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  b.end_sequence();
  EXPECT_NO_THROW(a.merge(b));
}

TEST(MetricMergeProperty, MismatchedMetricsRefuseToMerge) {
  metrics::PairRateMetric pair;
  metrics::RateSeriesMetric series;
  EXPECT_THROW(pair.merge(series), std::invalid_argument);

  metrics::MetricSuite a;
  a.add(std::make_unique<metrics::PairRateMetric>());
  metrics::MetricSuite b;
  b.add(std::make_unique<metrics::PairRateMetric>());
  b.add(std::make_unique<metrics::RateSeriesMetric>());
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

// The stats-layer accumulators the adapters lift share the contract.
TEST(MetricMergeProperty, StatsAccumulatorsMergeExactly) {
  util::Rng rng{99};
  stats::Ecdf whole_ecdf;
  stats::Ecdf left_ecdf;
  stats::Ecdf right_ecdf;
  stats::Histogram whole_hist{0.0, 10.0, 20};
  stats::Histogram left_hist{0.0, 10.0, 20};
  stats::Histogram right_hist{0.0, 10.0, 20};
  metrics::TailSketch whole_sketch;
  metrics::TailSketch left_sketch;
  metrics::TailSketch right_sketch;

  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-1.0, 12.0);
    const auto v = static_cast<std::uint64_t>(rng.below(1'000'000));
    whole_ecdf.add(x);
    whole_hist.add(x);
    whole_sketch.add(v);
    (i < 200 ? left_ecdf : right_ecdf).add(x);
    (i < 200 ? left_hist : right_hist).add(x);
    (i < 200 ? left_sketch : right_sketch).add(v);
  }

  left_ecdf.merge(right_ecdf);
  EXPECT_EQ(left_ecdf.sorted(), whole_ecdf.sorted());

  left_hist.merge(right_hist);
  EXPECT_EQ(left_hist.count(), whole_hist.count());
  for (std::size_t b = 0; b < whole_hist.bins(); ++b) {
    EXPECT_EQ(left_hist.bin_count(b), whole_hist.bin_count(b));
  }

  left_sketch.merge(right_sketch);
  EXPECT_EQ(left_sketch.to_json().dump(), whole_sketch.to_json().dump());

  stats::Histogram other{0.0, 5.0, 20};
  EXPECT_THROW(whole_hist.merge(other), std::invalid_argument);
}

// A sketch's record reads its p50, p90 and p99 from one cumulative pass;
// each must be what quantile() reports alone.
TEST(MetricMergeProperty, SketchTailQuantilesMatchQuantile) {
  constexpr std::uint64_t kTop = std::numeric_limits<std::uint64_t>::max();
  std::vector<metrics::TailSketch> sketches(5);  // [0] stays empty
  sketches[1].add(7);
  for (int k = 0; k < 64; ++k) {  // both sides of every power-of-two edge
    const std::uint64_t edge = std::uint64_t{1} << k;
    sketches[2].add(edge - 1);
    sketches[2].add(edge);
    sketches[2].add(edge + 1);
  }
  sketches[3].add(kTop);
  for (int i = 0; i < 98; ++i) sketches[4].add(static_cast<std::uint64_t>(i % 3));
  sketches[4].add(kTop);
  sketches[4].add(kTop);
  // Restored records whose count exceeds their buckets: every scan runs
  // off the end and falls back to the last bucket (or bucket 0).
  for (const char* text : {R"({"count":5,"min":40,"max":40,"sum":40,"buckets":[[36,1]]})",
                           R"({"count":2,"min":0,"max":0,"sum":0,"buckets":[]})"}) {
    sketches.emplace_back().from_json(*report::Json::parse(text));
  }
  util::Rng rng{4242};
  for (int n = 0; n < 300; ++n) {
    metrics::TailSketch& sketch = sketches.emplace_back();
    const std::uint64_t size = 1 + rng.below(200);
    for (std::uint64_t i = 0; i < size; ++i) sketch.add(rng.next() >> rng.below(64));
  }

  for (std::size_t i = 0; i < sketches.size(); ++i) {
    const metrics::TailSketch& sketch = sketches[i];
    const report::Json j = sketch.to_json();
    EXPECT_EQ(j.at("p50").as_double(), static_cast<double>(sketch.quantile(0.50))) << i;
    EXPECT_EQ(j.at("p90").as_double(), static_cast<double>(sketch.quantile(0.90))) << i;
    EXPECT_EQ(j.at("p99").as_double(), static_cast<double>(sketch.quantile(0.99))) << i;
  }
}

}  // namespace
}  // namespace reorder
