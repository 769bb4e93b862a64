// Tests for the SurveyEngine driver (single-target behaviour — the old
// MeasurementSession contract) and its statistics helpers.
#include <gtest/gtest.h>

#include "core/survey_engine.hpp"
#include "core/testbed.hpp"

namespace reorder::core {
namespace {

using util::Duration;

TEST(Session, RoundRobinProducesAllMeasurements) {
  TestbedConfig cfg;
  cfg.seed = 501;
  cfg.forward.swap_probability = 0.1;
  Testbed bed{cfg};

  SurveyEngine session{bed.loop()};
  session.add_target("remote", bed.probe(), bed.remote_addr(),
                     {TestSpec{"single-connection"}, TestSpec{"syn"}});
  // Per-measurement sample counts, as the sinks saw them.
  struct SampleCounter final : ResultSink {
    std::size_t pending{0};
    std::vector<std::size_t> per_measurement;
    std::size_t total{0};
    void on_sample(const SampleEvent&) override {
      ++pending;
      ++total;
    }
    void on_measurement(const MeasurementEvent&) override {
      per_measurement.push_back(pending);
      pending = 0;
    }
  } counter;
  session.add_sink(counter);

  TestRunConfig run;
  run.samples = 10;
  const auto& ms = session.run(run, /*rounds=*/3, Duration::millis(100));
  ASSERT_EQ(ms.size(), 6u);  // 2 tests x 3 rounds
  EXPECT_EQ(ms[0].test, "single-connection");
  EXPECT_EQ(ms[1].test, "syn");
  EXPECT_LT(ms[0].at, ms[1].at);
  ASSERT_EQ(counter.per_measurement.size(), ms.size());
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_TRUE(ms[i].result.admissible);
    EXPECT_EQ(ms[i].result.forward.total(), 10);
    // The log keeps summaries only; the samples streamed to the sinks.
    EXPECT_TRUE(ms[i].result.samples.empty());
    EXPECT_EQ(counter.per_measurement[i], 10u);
  }
  EXPECT_EQ(counter.total, 60u);
}

TEST(Session, SeriesAndAggregate) {
  TestbedConfig cfg;
  cfg.seed = 502;
  cfg.forward.swap_probability = 0.25;
  Testbed bed{cfg};

  SurveyEngine session{bed.loop()};
  session.add_target("remote", bed.probe(), bed.remote_addr(), {TestSpec{"syn"}});

  TestRunConfig run;
  run.samples = 20;
  session.run(run, 5, Duration::millis(50));

  const auto series = session.metrics().rate_series("remote", "syn", /*forward=*/true);
  ASSERT_EQ(series.size(), 5u);
  const auto agg = session.metrics().aggregate("remote", "syn", true);
  EXPECT_EQ(agg.total(), 100);
  EXPECT_NEAR(agg.rate_or(0.0), 0.25, 0.15);
  // Aggregate equals the sample-weighted union of the series measurements.
  EXPECT_EQ(agg.usable(), agg.in_order + agg.reordered);
}

TEST(Session, CompareEquivalentTestsSupportsNull) {
  TestbedConfig cfg;
  cfg.seed = 503;
  cfg.forward.swap_probability = 0.15;
  Testbed bed{cfg};

  SurveyEngine session{bed.loop()};
  session.add_target("remote", bed.probe(), bed.remote_addr(),
                     {TestSpec{"single-connection"}, TestSpec{"syn"}});

  TestRunConfig run;
  run.samples = 25;
  session.run(run, 8, Duration::millis(50));

  const auto cmp = session.metrics().compare("remote", "single-connection", "syn", true);
  EXPECT_EQ(cmp.n, 8u);
  EXPECT_TRUE(cmp.null_supported)
      << "two unbiased tests of the same stationary process must agree at 99.9%; mean diff = "
      << cmp.mean_difference;
}

TEST(Session, UnknownTargetYieldsEmptySeries) {
  sim::EventLoop loop;
  SurveyEngine session{loop};
  EXPECT_TRUE(session.metrics().rate_series("nope", "syn", true).empty());
  EXPECT_EQ(session.metrics().aggregate("nope", "syn", true).total(), 0);
}

TEST(Session, CompareErrorPaths) {
  // The paired-difference statistic needs >= 2 usable pairs; a survey too
  // short to provide them must surface the error, not fabricate a CI.
  TestbedConfig cfg;
  cfg.seed = 504;
  Testbed bed{cfg};

  SurveyEngine session{bed.loop()};
  session.add_target("remote", bed.probe(), bed.remote_addr(),
                     {TestSpec{"single-connection"}, TestSpec{"syn"}});
  TestRunConfig run;
  run.samples = 5;
  session.run(run, /*rounds=*/1, Duration::millis(50));

  EXPECT_THROW(session.metrics().compare("remote", "single-connection", "syn", true),
               std::invalid_argument);
  // An unknown test name truncates both series to zero pairs: same error.
  EXPECT_THROW(session.metrics().compare("remote", "single-connection", "no-such-test", true),
               std::invalid_argument);
}

TEST(Session, AggregateIsIdempotent) {
  TestbedConfig cfg;
  cfg.seed = 505;
  cfg.forward.swap_probability = 0.2;
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"syn"});
  TestRunConfig run;
  run.samples = 30;
  TestRunResult result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible);

  const auto fwd = result.forward;
  const auto rev = result.reverse;
  ASSERT_GT(fwd.total(), 0);
  // aggregate() recomputes from samples; calling it repeatedly must not
  // double-count.
  result.aggregate();
  result.aggregate();
  EXPECT_EQ(result.forward.in_order, fwd.in_order);
  EXPECT_EQ(result.forward.reordered, fwd.reordered);
  EXPECT_EQ(result.forward.ambiguous, fwd.ambiguous);
  EXPECT_EQ(result.forward.lost, fwd.lost);
  EXPECT_EQ(result.reverse.in_order, rev.in_order);
  EXPECT_EQ(result.reverse.reordered, rev.reordered);
  EXPECT_EQ(result.reverse.ambiguous, rev.ambiguous);
  EXPECT_EQ(result.reverse.lost, rev.lost);
}

}  // namespace
}  // namespace reorder::core
