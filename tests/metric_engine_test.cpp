// Tests for the streaming metrics engine: suite composition and feeding,
// admissibility gating, the survey's own engine matching an attached
// EngineSink under real SurveyEngine concurrency, cross-shard merging, and
// the JSONL `metrics` record schema.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/result_sink.hpp"
#include "core/survey_engine.hpp"
#include "core/survey_testbed.hpp"
#include "metrics/engine.hpp"
#include "metrics/pair_metrics.hpp"
#include "metrics/sequence_metrics.hpp"
#include "report/jsonl.hpp"
#include "util/random.hpp"

namespace reorder {
namespace {

using util::Duration;

core::TestRunResult make_result(util::Rng& rng, int samples, double p, bool admissible = true) {
  core::TestRunResult result;
  result.test_name = "synthetic";
  result.admissible = admissible;
  for (int i = 0; i < samples; ++i) {
    core::SampleResult s;
    s.forward = rng.bernoulli(p) ? core::Ordering::kReordered : core::Ordering::kInOrder;
    s.reverse = rng.bernoulli(p / 2) ? core::Ordering::kReordered : core::Ordering::kInOrder;
    s.started = util::TimePoint::from_ns(i * 1000);
    s.completed = util::TimePoint::from_ns(i * 1000 + 500);
    s.gap = Duration::micros(i % 5);
    result.samples.push_back(s);
  }
  result.aggregate();
  return result;
}

TEST(MetricEngine, DefaultSuiteCompositionAndAggregates) {
  util::Rng rng{7};
  metrics::MetricEngine engine;
  metrics::EngineSink sink{engine};

  const auto result = make_result(rng, 40, 0.3);
  core::publish_result(sink, "host-a", "syn", util::TimePoint::epoch(), result);

  const auto* suite = engine.suite("host-a", "syn");
  ASSERT_NE(suite, nullptr);
  EXPECT_NE(suite->find(metrics::PairRateMetric::kName), nullptr);
  EXPECT_NE(suite->find(metrics::RateSeriesMetric::kName), nullptr);
  EXPECT_NE(suite->find(metrics::TimeDomainMetric::kName), nullptr);
  EXPECT_NE(suite->find(metrics::RateEcdfMetric::kName), nullptr);
  EXPECT_NE(suite->find(metrics::LateTimeMetric::kName), nullptr);

  const auto fwd = engine.aggregate("host-a", "syn", true);
  EXPECT_EQ(fwd.in_order, result.forward.in_order);
  EXPECT_EQ(fwd.reordered, result.forward.reordered);
  EXPECT_EQ(engine.measurements("host-a", "syn"), 1u);
  EXPECT_EQ(engine.admissible_measurements("host-a", "syn"), 1u);

  // Unknown keys answer with empty defaults.
  EXPECT_EQ(engine.aggregate("nope", "syn", true).total(), 0u);
  EXPECT_TRUE(engine.rate_series("host-a", "nope", true).empty());
  EXPECT_EQ(engine.time_domain("nope", "nope").distinct_gaps(), 0u);
}

TEST(MetricEngine, InadmissibleMeasurementsAreCountedButNotAggregated) {
  util::Rng rng{8};
  metrics::MetricEngine engine;
  metrics::EngineSink sink{engine};

  core::publish_result(sink, "h", "t", util::TimePoint::epoch(),
                       make_result(rng, 20, 0.5, /*admissible=*/false));
  EXPECT_EQ(engine.measurements("h", "t"), 1u);
  EXPECT_EQ(engine.admissible_measurements("h", "t"), 0u);
  EXPECT_EQ(engine.aggregate("h", "t", true).total(), 0u);
  EXPECT_TRUE(engine.rate_series("h", "t", true).empty());
  EXPECT_EQ(engine.time_domain("h", "t").distinct_gaps(), 0u);
}

// The survey's queries are snapshot reads of the engine it owns; a
// standalone engine attached as a sink must agree exactly with them under
// real SurveyEngine concurrency (interleaved targets on one event loop,
// mid-run publication).
TEST(MetricEngine, SurveyEngineMatchesAnAttachedEngineSinkUnderConcurrency) {
  core::SurveyTestbedConfig cfg;
  cfg.seed = 99;
  const double swap[] = {0.0, 0.15, 0.3};
  for (int i = 0; i < 3; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = swap[i];
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    cfg.targets.push_back(std::move(target));
  }
  core::SurveyTestbed bed{std::move(cfg)};
  core::SurveyEngine survey{bed.loop()};
  bed.populate(survey);

  metrics::MetricEngine shadow;
  metrics::EngineSink shadow_sink{shadow};
  survey.add_sink(shadow_sink);

  core::TestRunConfig run;
  run.samples = 10;
  survey.run(run, 3, Duration::millis(500));

  for (std::size_t t = 0; t < bed.target_count(); ++t) {
    const std::string& name = bed.target_name(t);
    for (const char* test : {"single-connection", "syn"}) {
      for (const bool forward : {true, false}) {
        const auto via_survey = survey.metrics().aggregate(name, test, forward);
        const auto via_shadow = shadow.aggregate(name, test, forward);
        EXPECT_EQ(via_survey.in_order, via_shadow.in_order);
        EXPECT_EQ(via_survey.reordered, via_shadow.reordered);
        EXPECT_EQ(via_survey.ambiguous, via_shadow.ambiguous);
        EXPECT_EQ(via_survey.lost, via_shadow.lost);
        EXPECT_EQ(survey.metrics().rate_series(name, test, forward),
                  shadow.rate_series(name, test, forward));
      }
    }
  }
  // Bit-identical snapshots: the survey's own engine and the
  // independently fed shadow engine render the same JSON.
  EXPECT_EQ(survey.metrics().to_json().dump(), shadow.to_json().dump());
}

TEST(MetricEngine, MergeCombinesShardsExactly) {
  util::Rng rng{21};
  metrics::MetricEngine whole;
  metrics::EngineSink whole_sink{whole};
  metrics::MetricEngine shard_a;
  metrics::EngineSink shard_a_sink{shard_a};
  metrics::MetricEngine shard_b;
  metrics::EngineSink shard_b_sink{shard_b};

  // Shard A takes host-0 plus the first half of host-1's completion
  // order; shard B takes the rest — a contiguous split per key.
  for (int m = 0; m < 8; ++m) {
    const auto r0 = make_result(rng, 15, 0.2, /*admissible=*/m % 4 != 3);
    core::publish_result(whole_sink, "host-0", "syn", util::TimePoint::epoch(), r0, m);
    core::publish_result(shard_a_sink, "host-0", "syn", util::TimePoint::epoch(), r0, m);
    const auto r1 = make_result(rng, 15, 0.05);
    core::publish_result(whole_sink, "host-1", "syn", util::TimePoint::epoch(), r1, m);
    core::publish_result(m < 4 ? shard_a_sink : shard_b_sink, "host-1", "syn",
                         util::TimePoint::epoch(), r1, m);
  }

  metrics::MetricEngine merged;
  merged.merge(shard_a);
  merged.merge(shard_b);
  EXPECT_EQ(merged.to_json().dump(), whole.to_json().dump());
  EXPECT_EQ(merged.measurements("host-0", "syn"), 8u);
  EXPECT_EQ(merged.admissible_measurements("host-0", "syn"), 6u);
}

TEST(MetricEngine, JsonlMetricsRecordsParseAndCarryTheSchema) {
  util::Rng rng{31};
  metrics::MetricEngine engine;
  metrics::EngineSink sink{engine};
  core::publish_result(sink, "host-a", "syn", util::TimePoint::epoch(),
                       make_result(rng, 25, 0.25));
  core::publish_result(sink, "host-a", "single-connection", util::TimePoint::epoch(),
                       make_result(rng, 25, 0.25), 1);

  std::ostringstream out;
  report::JsonlWriter writer{out};
  engine.emit_jsonl(writer);
  EXPECT_EQ(writer.lines_written(), 2u);

  const auto records = report::read_jsonl_text(out.str());
  ASSERT_EQ(records.size(), 2u);
  // One canonical key order: single-connection sorts before syn, which
  // was seen first. records() builds exactly what emit_jsonl streamed.
  EXPECT_EQ(records[0].at("test").as_string(), "single-connection");
  EXPECT_EQ(engine.keys().front().second, "single-connection");
  const std::vector<report::Json> built = engine.records();
  ASSERT_EQ(built.size(), records.size());
  for (std::size_t i = 0; i < built.size(); ++i) EXPECT_EQ(built[i].dump(), records[i].dump());
  for (const auto& record : records) {
    EXPECT_EQ(record.at("type").as_string(), "metrics");
    EXPECT_EQ(record.at("target").as_string(), "host-a");
    EXPECT_EQ(record.at("measurements").as_int(), 1);
    EXPECT_EQ(record.at("admissible").as_int(), 1);
    const auto& suite = record.at("metrics");
    ASSERT_TRUE(suite.is_object());
    const auto* pair_rate = suite.find("pair_rate");
    ASSERT_NE(pair_rate, nullptr);
    EXPECT_EQ(pair_rate->at("fwd").at("in_order").as_int() +
                  pair_rate->at("fwd").at("reordered").as_int(),
              25);
    EXPECT_NE(suite.find("time_domain"), nullptr);
    EXPECT_NE(suite.find("late_time"), nullptr);
  }
}

TEST(MetricEngine, RestoreRecordRejectsADuplicateKeyBeforeParsingItsSuite) {
  util::Rng rng{37};
  metrics::MetricEngine engine;
  metrics::EngineSink sink{engine};
  core::publish_result(sink, "host-a", "syn", util::TimePoint::epoch(),
                       make_result(rng, 10, 0.2));
  const report::Json record = engine.records().front();

  metrics::MetricEngine restored;
  restored.restore_record(record);
  EXPECT_EQ(restored.records().front().dump(), record.dump());
  // An unparseable suite would throw std::runtime_error; the duplicate
  // key is caught first.
  report::Json duplicate = record;
  duplicate.set("metrics", "not a suite");
  EXPECT_THROW(restored.restore_record(duplicate), std::invalid_argument);
  EXPECT_EQ(restored.key_count(), 1u);
}

// Sequence metrics plugged in via the suite factory must accumulate from
// the engine's pair stream: every usable forward verdict is the
// degenerate length-2 sequence.
TEST(MetricEngine, FeedsPluggedSequenceMetricsFromPairStreams) {
  metrics::MetricEngine engine{[](std::string_view, std::string_view) {
    metrics::MetricSuite suite;
    suite.add(std::make_unique<metrics::SequenceExtentMetric>());
    suite.add(std::make_unique<metrics::NReorderingMetric>());
    return suite;
  }};
  metrics::EngineSink sink{engine};

  core::TestRunResult result;
  result.test_name = "t";
  const core::Ordering verdicts[] = {core::Ordering::kReordered, core::Ordering::kInOrder,
                                     core::Ordering::kInOrder, core::Ordering::kReordered,
                                     core::Ordering::kAmbiguous, core::Ordering::kLost,
                                     core::Ordering::kInOrder};
  for (const auto v : verdicts) {
    core::SampleResult s;
    s.forward = v;
    result.samples.push_back(s);
  }
  result.aggregate();
  core::publish_result(sink, "h", "t", util::TimePoint::epoch(), result);

  const auto* extent = engine.suite("h", "t")->get<metrics::SequenceExtentMetric>(
      metrics::SequenceExtentMetric::kName);
  ASSERT_NE(extent, nullptr);
  EXPECT_EQ(extent->sequences(), 5u);  // usable forward verdicts only
  EXPECT_EQ(extent->packets(), 10u);
  EXPECT_EQ(extent->reordered(), 2u);
  EXPECT_EQ(extent->max_extent(), 1u);
  const auto* n = engine.suite("h", "t")->get<metrics::NReorderingMetric>(
      metrics::NReorderingMetric::kName);
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->count_for(1), 2u);
}

TEST(MetricEngine, PluggableSuiteFactory) {
  metrics::MetricEngine engine{[](std::string_view, std::string_view) {
    metrics::MetricSuite suite;
    suite.add(std::make_unique<metrics::PairRateMetric>());
    return suite;
  }};
  metrics::EngineSink sink{engine};
  util::Rng rng{5};
  core::publish_result(sink, "h", "t", util::TimePoint::epoch(), make_result(rng, 10, 0.1));
  ASSERT_NE(engine.suite("h", "t"), nullptr);
  EXPECT_EQ(engine.suite("h", "t")->size(), 1u);
  // Queries backed by absent metrics answer empty rather than throwing.
  EXPECT_TRUE(engine.rate_series("h", "t", true).empty());
  EXPECT_GT(engine.aggregate("h", "t", true).total(), 0u);
}

}  // namespace
}  // namespace reorder
