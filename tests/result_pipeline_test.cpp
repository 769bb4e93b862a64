// Tests for the streaming results pipeline: ResultSink fan-out from the
// SurveyEngine (callbacks arriving mid-run, in event-loop order), the
// survey's metric queries matching the pre-redesign (target, test) map
// exactly, and the publish_result single-test driver path.
#include <gtest/gtest.h>

#include <map>

#include "core/scenario.hpp"
#include "core/survey_testbed.hpp"
#include "metrics/engine.hpp"

namespace reorder::core {
namespace {

using util::Duration;

SurveyTestbedConfig two_target_config() {
  SurveyTestbedConfig cfg;
  cfg.seed = 2024;
  const double swap[] = {0.25, 0.05};
  for (int i = 0; i < 2; ++i) {
    SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = swap[i];
    target.reverse.swap_probability = swap[i] / 2.0;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {TestSpec{"single-connection"}, TestSpec{"syn"}};
    cfg.targets.push_back(std::move(target));
  }
  return cfg;
}

/// Records every event with the context it arrived in (virtual time and
/// whether the survey was still running).
class RecordingSink final : public ResultSink {
 public:
  RecordingSink(sim::EventLoop& loop, const SurveyEngine& engine)
      : loop_{loop}, engine_{engine} {}

  struct MeasurementRecord {
    std::string target;
    std::string test;
    std::size_t index;
    util::TimePoint arrived_at;       ///< loop time when the callback fired
    bool engine_running;              ///< engine.running() inside the callback
    std::size_t samples_seen_before;  ///< per-sample events for this measurement
    std::size_t samples_in_result;    ///< e.result.samples.size()
    ReorderEstimate forward;
  };

  void on_survey_begin(const SurveyEvent& e) override {
    ++begins_;
    targets_at_begin_ = e.targets;
  }
  void on_sample(const SampleEvent& e) override {
    ASSERT_EQ(e.measurement_index, measurements_.size())
        << "sample events must precede their measurement event";
    ++pending_samples_;
    last_sample_gap_ = e.sample.gap;
  }
  void on_measurement(const MeasurementEvent& e) override {
    MeasurementRecord rec;
    rec.target = std::string{e.target};
    rec.test = std::string{e.test};
    rec.index = e.measurement_index;
    rec.arrived_at = loop_.now();
    rec.engine_running = engine_.running();
    rec.samples_seen_before = pending_samples_;
    rec.samples_in_result = e.result.samples.size();
    rec.forward = e.result.forward;
    pending_samples_ = 0;
    measurements_.push_back(std::move(rec));
  }
  void on_survey_end(const SurveyEvent& e) override {
    ++ends_;
    measurements_at_end_ = e.measurements;
  }

  sim::EventLoop& loop_;
  const SurveyEngine& engine_;
  std::vector<MeasurementRecord> measurements_;
  std::size_t pending_samples_{0};
  util::Duration last_sample_gap_{};
  int begins_{0};
  int ends_{0};
  std::size_t targets_at_begin_{0};
  std::size_t measurements_at_end_{0};
};

TEST(ResultPipeline, MeasurementCallbacksArriveMidRunInEventLoopOrder) {
  SurveyTestbed bed{two_target_config()};
  SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  RecordingSink sink{bed.loop(), engine};
  engine.add_sink(sink);

  TestRunConfig run;
  run.samples = 10;
  constexpr int kRounds = 3;
  bool done = false;
  engine.start(run, kRounds, Duration::millis(200), [&done] { done = true; });
  EXPECT_EQ(sink.begins_, 1) << "survey_begin fires when the survey starts";
  EXPECT_EQ(sink.targets_at_begin_, 2u);
  bed.loop().run();
  ASSERT_TRUE(done);

  const auto& ms = engine.measurements();
  ASSERT_EQ(ms.size(), 2u * 2u * kRounds);
  ASSERT_EQ(sink.measurements_.size(), ms.size());
  EXPECT_EQ(sink.ends_, 1);
  EXPECT_EQ(sink.measurements_at_end_, ms.size());

  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto& rec = sink.measurements_[i];
    // Events mirror the engine's completion log, element for element —
    // same order the event loop completed them in.
    EXPECT_EQ(rec.index, i);
    EXPECT_EQ(rec.target, ms[i].target);
    EXPECT_EQ(rec.test, ms[i].test);
    EXPECT_EQ(rec.forward.reordered, ms[i].result.forward.reordered);
    // Streaming, not post-hoc: every callback fired while the survey was
    // still in flight, at a strictly advancing virtual time.
    EXPECT_TRUE(rec.engine_running) << "measurement " << i << " was published after the run";
    if (i > 0) {
      EXPECT_GE(rec.arrived_at, sink.measurements_[i - 1].arrived_at);
    }
    // Each measurement's per-sample events all arrived just before it,
    // one per sample of the result it carries (the completion log
    // intentionally drops the per-sample payload).
    EXPECT_EQ(rec.samples_seen_before, rec.samples_in_result);
    EXPECT_TRUE(ms[i].result.samples.empty()) << "log must not keep the sample payload";
  }
  // The callbacks interleave targets (concurrency is observable in the
  // stream, not only in the final log).
  bool interleaved = false;
  for (std::size_t i = 2; i < sink.measurements_.size(); ++i) {
    if (sink.measurements_[i].target != sink.measurements_[i - 1].target) interleaved = true;
  }
  EXPECT_TRUE(interleaved);
}

TEST(ResultPipeline, MetricQueriesMatchThePreRedesignMap) {
  SurveyTestbed bed{two_target_config()};
  SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  TestRunConfig run;
  run.samples = 10;
  engine.run(run, 4, Duration::millis(200));

  // Recompute every query the way the old poll-only map did — straight
  // from the completion log — and demand identity from the metric engine.
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>> by_key;
  const auto& ms = engine.measurements();
  for (std::size_t i = 0; i < ms.size(); ++i) by_key[{ms[i].target, ms[i].test}].push_back(i);

  ASSERT_FALSE(by_key.empty());
  for (const auto& [key, indices] : by_key) {
    for (const bool forward : {true, false}) {
      std::vector<double> want_series;
      ReorderEstimate want_aggregate;
      for (const std::size_t i : indices) {
        if (!ms[i].result.admissible) continue;
        const ReorderEstimate& est = forward ? ms[i].result.forward : ms[i].result.reverse;
        if (est.usable() > 0) {
          want_series.push_back(static_cast<double>(est.reordered) / est.usable());
        }
        want_aggregate += est;
      }
      const auto got_series = engine.metrics().rate_series(key.first, key.second, forward);
      ASSERT_EQ(got_series.size(), want_series.size()) << key.first << "/" << key.second;
      for (std::size_t i = 0; i < got_series.size(); ++i) {
        EXPECT_DOUBLE_EQ(got_series[i], want_series[i]);
      }
      const auto got_aggregate = engine.metrics().aggregate(key.first, key.second, forward);
      EXPECT_EQ(got_aggregate.in_order, want_aggregate.in_order);
      EXPECT_EQ(got_aggregate.reordered, want_aggregate.reordered);
      EXPECT_EQ(got_aggregate.ambiguous, want_aggregate.ambiguous);
      EXPECT_EQ(got_aggregate.lost, want_aggregate.lost);
    }
  }

  // compare() built on the engine agrees with one built on the raw series.
  const auto cmp = engine.metrics().compare("host-0", "single-connection", "syn", true);
  auto a = engine.metrics().rate_series("host-0", "single-connection", true);
  auto b = engine.metrics().rate_series("host-0", "syn", true);
  const std::size_t n = std::min(a.size(), b.size());
  a.resize(n);
  b.resize(n);
  const auto want = stats::pair_difference_test(a, b, 0.999);
  EXPECT_DOUBLE_EQ(cmp.mean_difference, want.mean_difference);
  EXPECT_EQ(cmp.null_supported, want.null_supported);

  // Unknown keys answer empty, as the map did.
  EXPECT_TRUE(engine.metrics().rate_series("no-such-host", "syn", true).empty());
  EXPECT_EQ(engine.metrics().aggregate("host-0", "no-such-test", true).total(), 0);
}

TEST(ResultPipeline, FanOutDeliversIdenticalStreamsToEverySink) {
  SurveyTestbed bed{two_target_config()};
  SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  RecordingSink first{bed.loop(), engine};
  RecordingSink second{bed.loop(), engine};
  engine.add_sink(first);
  engine.add_sink(second);

  TestRunConfig run;
  run.samples = 8;
  engine.run(run, 2, Duration::millis(100));

  ASSERT_EQ(first.measurements_.size(), second.measurements_.size());
  for (std::size_t i = 0; i < first.measurements_.size(); ++i) {
    EXPECT_EQ(first.measurements_[i].target, second.measurements_[i].target);
    EXPECT_EQ(first.measurements_[i].test, second.measurements_[i].test);
    EXPECT_EQ(first.measurements_[i].arrived_at, second.measurements_[i].arrived_at);
  }
}

TEST(ResultPipeline, EmptySurveyStillBracketsTheStream) {
  // Sinks may key on survey_end to know a capture is complete; a survey
  // with nothing to do must still emit both lifecycle events.
  sim::EventLoop loop;
  SurveyEngine engine{loop};
  RecordingSink sink{loop, engine};
  engine.add_sink(sink);
  bool completed = false;
  engine.start(TestRunConfig{}, 3, Duration::millis(10), [&completed] { completed = true; });
  EXPECT_TRUE(completed);
  EXPECT_EQ(sink.begins_, 1);
  EXPECT_EQ(sink.ends_, 1);
  EXPECT_EQ(sink.measurements_at_end_, 0u);
}

TEST(ResultPipeline, AttachingSinksMidSurveyThrows) {
  SurveyTestbed bed{two_target_config()};
  SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  engine.start(TestRunConfig{}, 1, Duration::millis(10));
  ASSERT_TRUE(engine.running());
  RecordingSink late{bed.loop(), engine};
  EXPECT_THROW(engine.add_sink(late), std::logic_error);
  bed.loop().run();
}

TEST(ResultPipeline, PublishResultFeedsAStandaloneEngine) {
  // The single-test driver path: a run_sync completion published into an
  // engine must answer queries exactly as the result itself does, and
  // every sample must reach the sinks intact and in order.
  TestbedConfig cfg;
  cfg.seed = 99;
  cfg.forward.swap_probability = 0.2;
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"syn"});
  TestRunConfig run;
  run.samples = 40;
  const TestRunResult result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible);

  struct SampleRecorder final : ResultSink {
    std::vector<SampleResult> samples;
    std::size_t measurements{0};
    void on_sample(const SampleEvent& e) override { samples.push_back(e.sample); }
    void on_measurement(const MeasurementEvent&) override { ++measurements; }
  };
  metrics::MetricEngine engine;
  metrics::EngineSink engine_sink{engine};
  SampleRecorder recorder;
  SinkFanout fanout;
  fanout.add(engine_sink);
  fanout.add(recorder);
  publish_result(fanout, "target", result.test_name, bed.loop().now(), result);

  using Key = std::pair<std::string, std::string>;
  EXPECT_EQ(engine.keys(), std::vector<Key>{Key("target", result.test_name)});
  EXPECT_EQ(engine.measurements("target", result.test_name), 1u);
  const auto agg = engine.aggregate("target", result.test_name, true);
  EXPECT_EQ(agg.reordered, result.forward.reordered);
  EXPECT_EQ(agg.in_order, result.forward.in_order);

  // Every sample streams out intact and in order.
  EXPECT_EQ(recorder.measurements, 1u);
  ASSERT_EQ(recorder.samples.size(), result.samples.size());
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    EXPECT_EQ(recorder.samples[i].forward, result.samples[i].forward);
    EXPECT_EQ(recorder.samples[i].reverse, result.samples[i].reverse);
    EXPECT_EQ(recorder.samples[i].gap, result.samples[i].gap);
    EXPECT_EQ(recorder.samples[i].started, result.samples[i].started);
    EXPECT_EQ(recorder.samples[i].completed, result.samples[i].completed);
  }
}

TEST(ResultPipeline, ScenarioRunnerStreamsIntoSinksAndEngineBuildsTimeDomain) {
  ScenarioSpec spec = scenarios::swap_shaper(0.15, 0.0, /*seed=*/5);
  spec.tests = {TestSpec{"syn"}};
  spec.run.samples = 20;
  spec.gap_sweep = {util::Duration::micros(0), util::Duration::micros(40)};

  // A fanout of a metric engine plus a lifecycle counter: the scenario
  // runner must bracket its stream like the survey engine does.
  struct LifecycleCounter final : ResultSink {
    int begins{0};
    int ends{0};
    std::size_t measurements_at_end{0};
    void on_survey_begin(const SurveyEvent&) override { ++begins; }
    void on_survey_end(const SurveyEvent& e) override {
      ++ends;
      measurements_at_end = e.measurements;
    }
  };
  metrics::MetricEngine engine;
  metrics::EngineSink engine_sink{engine};
  LifecycleCounter lifecycle;
  SinkFanout fanout;
  fanout.add(engine_sink);
  fanout.add(lifecycle);
  const ScenarioResult result = run_scenario(spec, &fanout);
  EXPECT_EQ(lifecycle.begins, 1);
  EXPECT_EQ(lifecycle.ends, 1);
  EXPECT_EQ(lifecycle.measurements_at_end, result.measurements.size());
  using Key = std::pair<std::string, std::string>;
  EXPECT_EQ(engine.keys(), std::vector<Key>{Key(spec.name, "syn")});
  ASSERT_EQ(engine.measurements(spec.name, "syn"), result.measurements.size());

  // The engine's time-domain profile equals one accumulated by hand from
  // the measurement log (the old fig7/time_domain loop).
  TimeDomainProfile manual;
  for (const auto& m : result.measurements) {
    if (!m.result.admissible) continue;
    for (const auto& s : m.result.samples) manual.add(s.gap, s.forward);
  }
  const TimeDomainProfile from_engine = engine.time_domain(spec.name, "syn");
  ASSERT_EQ(from_engine.distinct_gaps(), manual.distinct_gaps());
  for (const auto& point : manual.points()) {
    const auto got = from_engine.at(point.gap);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->in_order, point.estimate.in_order);
    EXPECT_EQ(got->reordered, point.estimate.reordered);
    EXPECT_EQ(got->ambiguous, point.estimate.ambiguous);
    EXPECT_EQ(got->lost, point.estimate.lost);
  }
}

TEST(ResultPipeline, WatchdogTimeoutsStreamAsInadmissibleMeasurements) {
  class NeverCompletes final : public ReorderTest {
   public:
    std::string name() const override { return "never-completes"; }
    void run(const TestRunConfig&, std::function<void(TestRunResult)>) override {}
  };

  sim::EventLoop loop;
  SurveyEngine engine{loop};
  std::vector<std::unique_ptr<ReorderTest>> tests;
  tests.push_back(std::make_unique<NeverCompletes>());
  engine.add_target("stuck", std::move(tests));
  RecordingSink sink{loop, engine};
  engine.add_sink(sink);

  engine.run(TestRunConfig{}, /*rounds=*/2, Duration::millis(10));
  ASSERT_EQ(sink.measurements_.size(), 2u);
  for (const auto& rec : sink.measurements_) {
    EXPECT_EQ(rec.test, "never-completes");
    EXPECT_EQ(rec.samples_seen_before, 0u) << "a timed-out run has no samples to stream";
  }
  // The metrics record them as inadmissible: no rates, but counted.
  EXPECT_EQ(engine.metrics().measurements("stuck", "never-completes"), 2u);
  EXPECT_TRUE(engine.metrics().rate_series("stuck", "never-completes", true).empty());
}

}  // namespace
}  // namespace reorder::core
