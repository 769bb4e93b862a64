// Tests for the async multi-target SurveyEngine and the SurveyTestbed:
// concurrent interleaving on one event loop, exact agreement with the old
// synchronous one-test-at-a-time driver, and the engine's failure paths
// (watchdog timeouts, stale completions).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/ping_burst_test.hpp"
#include "core/survey_testbed.hpp"
#include "stats/pair_difference.hpp"

namespace reorder::core {
namespace {

using util::Duration;

SurveyTestbedConfig three_target_config() {
  SurveyTestbedConfig cfg;
  cfg.seed = 42;
  const double swap[] = {0.0, 0.12, 0.3};
  for (int i = 0; i < 3; ++i) {
    SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = swap[i];
    target.reverse.swap_probability = swap[i] / 3.0;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {TestSpec{"single-connection"}, TestSpec{"syn"}};
    cfg.targets.push_back(std::move(target));
  }
  return cfg;
}

constexpr int kRounds = 4;
constexpr int kSamples = 12;

TEST(SurveyEngine, ThreeTargetsInterleaveOnOneLoop) {
  SurveyTestbed bed{three_target_config()};
  SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  ASSERT_EQ(engine.target_count(), 3u);

  TestRunConfig run;
  run.samples = kSamples;
  const auto& ms = engine.run(run, kRounds, Duration::millis(500));
  EXPECT_FALSE(engine.running());
  ASSERT_EQ(ms.size(), 3u * 2u * kRounds);

  // Concurrency, not round-robin blocking: every target's first
  // measurement starts at the same instant — t=0 — instead of waiting for
  // the previous target's cycle to finish.
  std::set<std::string> started_at_zero;
  for (const auto& m : ms) {
    if (m.at == util::TimePoint::epoch()) started_at_zero.insert(m.target);
  }
  EXPECT_EQ(started_at_zero.size(), 3u) << "all targets must launch concurrently";

  // And each target's measurements are spread over the whole survey, not
  // bunched in one contiguous run.
  for (std::size_t t = 0; t < 3; ++t) {
    const std::string name = bed.target_name(t);
    std::size_t first = ms.size();
    std::size_t last = 0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (ms[i].target != name) continue;
      first = std::min(first, i);
      last = std::max(last, i);
      ++count;
    }
    EXPECT_EQ(count, 2u * kRounds);
    EXPECT_GT(last - first + 1, count) << name << " ran as one contiguous block";
  }

  // Measured rates track each target's configured process.
  EXPECT_NEAR(engine.metrics().aggregate("host-0", "syn", true).rate_or(0.0), 0.0, 0.02);
  EXPECT_NEAR(engine.metrics().aggregate("host-2", "syn", true).rate_or(0.0), 0.3, 0.12);
}

TEST(SurveyEngine, ConcurrentResultsMatchTheSynchronousDriver) {
  // The concurrent engine against one world...
  SurveyTestbed bed{three_target_config()};
  SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  TestRunConfig run;
  run.samples = kSamples;
  engine.run(run, kRounds, Duration::millis(500));

  // ...and the old MeasurementSession discipline — strictly one blocking
  // test at a time, target after target — against an identically seeded
  // twin world on its own loop.
  SurveyTestbed twin{three_target_config()};
  std::map<std::tuple<std::string, std::string, bool>, std::vector<double>> reference;
  std::vector<std::vector<std::unique_ptr<ReorderTest>>> suites;
  for (std::size_t t = 0; t < twin.target_count(); ++t) {
    std::vector<std::unique_ptr<ReorderTest>> suite;
    for (const auto& spec : twin.target_tests(t)) {
      suite.push_back(TestRegistry::global().create(twin.probe(), twin.target_addr(t), spec));
    }
    suites.push_back(std::move(suite));
  }
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t t = 0; t < twin.target_count(); ++t) {
      for (auto& test : suites[t]) {
        std::optional<TestRunResult> out;
        test->run(run, [&out](TestRunResult r) { out = std::move(r); });
        twin.loop().run_while(twin.loop().now() + Duration::seconds(600),
                              [&out] { return !out.has_value(); });
        ASSERT_TRUE(out.has_value());
        if (out->admissible) {
          for (const bool forward : {true, false}) {
            const auto& est = forward ? out->forward : out->reverse;
            if (const auto rate = est.rate()) {
              reference[{twin.target_name(t), test->name(), forward}].push_back(*rate);
            }
          }
        }
        twin.loop().advance(Duration::millis(500));
      }
    }
  }

  // Per-target rate series (both directions) must agree sample for
  // sample: each target's world is independent, so interleaving must not
  // change what any single target measures.
  for (std::size_t t = 0; t < 3; ++t) {
    for (const char* test : {"single-connection", "syn"}) {
      for (const bool forward : {true, false}) {
        const auto concurrent = engine.metrics().rate_series(twin.target_name(t), test, forward);
        const auto& sequential = reference[{twin.target_name(t), test, forward}];
        ASSERT_EQ(concurrent.size(), sequential.size())
            << twin.target_name(t) << "/" << test << (forward ? " fwd" : " rev");
        for (std::size_t i = 0; i < concurrent.size(); ++i) {
          EXPECT_DOUBLE_EQ(concurrent[i], sequential[i])
              << twin.target_name(t) << "/" << test << " measurement " << i;
        }
      }
    }
  }
  // The reverse path is genuinely exercised (the behaviour knobs set in
  // three_target_config survived into the simulated hosts).
  EXPECT_FALSE(engine.metrics().rate_series("host-2", "single-connection", false).empty());

  // And the §IV-B cross-test comparison lands on the same verdict.
  const auto cmp = engine.metrics().compare("host-2", "single-connection", "syn", true);
  const auto& a = reference[{"host-2", "single-connection", true}];
  const auto& b = reference[{"host-2", "syn", true}];
  const std::size_t n = std::min(a.size(), b.size());
  const auto expected = stats::pair_difference_test(std::span{a.data(), n},
                                                    std::span{b.data(), n}, 0.999);
  EXPECT_DOUBLE_EQ(cmp.mean_difference, expected.mean_difference);
  EXPECT_EQ(cmp.null_supported, expected.null_supported);
}

TEST(SurveyEngine, TargetBehaviorKnobsSurviveIntoTheHosts) {
  // Regression: a target config with no listeners gets the standard
  // listener set installed, but its behaviour/IPID knobs must not be
  // replaced by defaults.
  SurveyTestbedConfig cfg;
  cfg.seed = 77;
  SurveyTargetConfig target;
  target.name = "random-ipid";
  target.remote.ipid_policy = tcpip::IpidPolicy::kRandom;
  target.tests = {TestSpec{"dual-connection"}};
  cfg.targets.push_back(std::move(target));
  SurveyTestbed bed{std::move(cfg)};

  SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  TestRunConfig run;
  run.samples = 8;
  const auto& ms = engine.run(run, 1, Duration::millis(100));
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_FALSE(ms[0].result.admissible)
      << "randomized IPIDs must rule the dual test out on this target";
}

// ---------- failure paths ----------

class NeverCompletes final : public ReorderTest {
 public:
  std::string name() const override { return "never-completes"; }
  void run(const TestRunConfig&, std::function<void(TestRunResult)>) override {}
};

class CompletesLate final : public ReorderTest {
 public:
  explicit CompletesLate(sim::EventLoop& loop) : loop_{loop} {}
  std::string name() const override { return "late"; }
  void run(const TestRunConfig&, std::function<void(TestRunResult)> done) override {
    loop_.schedule(Duration::seconds(700), [done = std::move(done)] {
      TestRunResult r;
      r.test_name = "late";
      done(std::move(r));
    });
  }

 private:
  sim::EventLoop& loop_;
};

TEST(SurveyEngine, WatchdogRecordsStuckMeasurementsAndMovesOn) {
  sim::EventLoop loop;
  SurveyEngine engine{loop};
  std::vector<std::unique_ptr<ReorderTest>> tests;
  tests.push_back(std::make_unique<NeverCompletes>());
  engine.add_target("stuck", std::move(tests));

  const auto& ms = engine.run(TestRunConfig{}, /*rounds=*/2, Duration::millis(10));
  EXPECT_FALSE(engine.running());
  ASSERT_EQ(ms.size(), 2u);
  for (const auto& m : ms) {
    EXPECT_FALSE(m.result.admissible);
    EXPECT_EQ(m.result.note, "measurement did not complete");
  }
}

/// Completes long after the watchdog deadline, carrying real-looking
/// samples — the abandoned-run residue the sinks must never see.
class CompletesLateWithSamples final : public ReorderTest {
 public:
  explicit CompletesLateWithSamples(sim::EventLoop& loop) : loop_{loop} {}
  std::string name() const override { return "late-with-samples"; }
  void run(const TestRunConfig&, std::function<void(TestRunResult)> done) override {
    loop_.schedule(Duration::seconds(700), [done = std::move(done)] {
      TestRunResult r;
      r.test_name = "late-with-samples";
      SampleResult s;
      s.forward = Ordering::kReordered;
      s.reverse = Ordering::kInOrder;
      r.samples.assign(5, s);
      r.aggregate();
      done(std::move(r));
    });
  }

 private:
  sim::EventLoop& loop_;
};

/// Counts what actually reaches a sink.
class CountingSink final : public ResultSink {
 public:
  void on_sample(const SampleEvent&) override { ++samples; }
  void on_measurement(const MeasurementEvent& e) override {
    ++measurements;
    if (e.result.admissible) ++admissible;
  }
  int samples{0};
  int measurements{0};
  int admissible{0};
};

TEST(SurveyEngine, AbandonedMeasurementResidueNeverReachesSinks) {
  // Pins the sink contract: a measurement that passes measurement_deadline
  // is recorded as a timeout, and when the abandoned run completes later —
  // mid-survey or after the survey ended — its per-sample events must NOT
  // be published to the sinks nor folded into the metrics. Today the
  // open/generation check drops both orderings exercised here; the
  // explicit past-deadline guard in finish_measurement is defense in depth
  // behind it. If either is weakened enough to leak residue, this fails.
  sim::EventLoop loop;
  SurveyEngine engine{loop};
  std::vector<std::unique_ptr<ReorderTest>> tests;
  tests.push_back(std::make_unique<CompletesLateWithSamples>(loop));
  engine.add_target("late", std::move(tests));
  CountingSink sink;
  engine.add_sink(sink);

  // Two rounds: the first abandoned run's completion (t=700s) lands while
  // round 2 is open (watchdogs fire at 600s and ~1200s), the second one
  // after the survey is over.
  engine.run(TestRunConfig{}, /*rounds=*/2, Duration::millis(10));
  EXPECT_FALSE(engine.running());
  loop.run();  // drain both abandoned completions

  EXPECT_EQ(sink.measurements, 2) << "both timeouts are recorded";
  EXPECT_EQ(sink.admissible, 0);
  EXPECT_EQ(sink.samples, 0) << "abandoned-run samples leaked into the sinks";
  ASSERT_EQ(engine.measurements().size(), 2u);
  for (const auto& m : engine.measurements()) {
    EXPECT_FALSE(m.result.admissible);
    EXPECT_TRUE(m.result.samples.empty());
  }
  EXPECT_EQ(engine.metrics().admissible_measurements("late", "late-with-samples"), 0u);
}

TEST(SurveyEngine, RetainSamplesKeepsTheLogReplayable) {
  SurveyTestbedConfig cfg = three_target_config();
  cfg.targets.resize(1);
  SurveyTestbed bed{std::move(cfg)};
  SurveyEngine::Options options;
  options.retain_samples = true;
  SurveyEngine engine{bed.loop(), options};
  bed.populate(engine);

  TestRunConfig run;
  run.samples = 6;
  engine.run(run, /*rounds=*/1, Duration::millis(100));
  ASSERT_EQ(engine.measurements().size(), 2u);
  for (const auto& m : engine.measurements()) {
    EXPECT_EQ(m.result.samples.size(), 6u) << "retain_samples must keep the payload";
  }

  // release_measurements() hands the log over and leaves the engine empty.
  const auto released = engine.release_measurements();
  EXPECT_EQ(released.size(), 2u);
  EXPECT_TRUE(engine.measurements().empty());
}

TEST(SurveyEngine, StaleCompletionAfterTimeoutIsDropped) {
  sim::EventLoop loop;
  SurveyEngine engine{loop};
  std::vector<std::unique_ptr<ReorderTest>> tests;
  tests.push_back(std::make_unique<CompletesLate>(loop));
  engine.add_target("late", std::move(tests));

  engine.run(TestRunConfig{}, /*rounds=*/1, Duration::millis(10));
  // Drain the late completion (scheduled beyond the 600s watchdog).
  loop.run();
  ASSERT_EQ(engine.measurements().size(), 1u);
  EXPECT_FALSE(engine.measurements()[0].result.admissible);
}

// Every run in a world shares its probe host. Two ping-burst runs at
// once each register ICMP for their own target, so each counts exactly
// its own echo replies: ten clean bursts of five are 40 in-order pairs.
TEST(SurveyTestbed, PingBurstRunsInOneWorldCountOnlyTheirOwnReplies) {
  SurveyTestbedConfig cfg;
  cfg.seed = 5;
  cfg.targets.resize(2);
  for (SurveyTargetConfig& target : cfg.targets) target.tests = {TestSpec{"ping-burst"}};
  SurveyTestbed bed{cfg};
  std::vector<std::unique_ptr<PingBurstTest>> probes;
  std::vector<std::optional<TestRunResult>> results(2);
  TestRunConfig run;
  run.samples = 10;
  for (std::size_t i = 0; i < 2; ++i) {
    probes.push_back(std::make_unique<PingBurstTest>(bed.probe(), bed.target_addr(i)));
    probes[i]->run(run, [&results, i](TestRunResult r) { results[i] = std::move(r); });
  }
  bed.loop().run();

  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(results[i].has_value()) << bed.target_name(i);
    const PingBurstResult& burst = probes[i]->last_burst_result();
    EXPECT_TRUE(results[i]->admissible) << bed.target_name(i);
    EXPECT_EQ(burst.requests_sent, 50u) << bed.target_name(i);
    EXPECT_EQ(burst.replies_received, burst.requests_sent) << bed.target_name(i);
    EXPECT_EQ(results[i]->forward.in_order, 40u) << bed.target_name(i);
    EXPECT_EQ(results[i]->forward.reordered, 0u) << bed.target_name(i);
  }
  EXPECT_EQ(bed.probe().registered_icmp(), 0u);
}

TEST(SurveyEngine, NoTargetsCompletesImmediately) {
  sim::EventLoop loop;
  SurveyEngine engine{loop};
  bool completed = false;
  engine.start(TestRunConfig{}, 3, Duration::millis(10), [&completed] { completed = true; });
  EXPECT_TRUE(completed);
  EXPECT_FALSE(engine.running());
  EXPECT_TRUE(engine.measurements().empty());
}

TEST(SurveyEngine, AddingTargetsMidSurveyThrows) {
  sim::EventLoop loop;
  SurveyEngine engine{loop};
  std::vector<std::unique_ptr<ReorderTest>> tests;
  tests.push_back(std::make_unique<NeverCompletes>());
  engine.add_target("stuck", std::move(tests));
  engine.start(TestRunConfig{}, 1, Duration::millis(10));
  ASSERT_TRUE(engine.running());
  std::vector<std::unique_ptr<ReorderTest>> more;
  more.push_back(std::make_unique<NeverCompletes>());
  EXPECT_THROW(engine.add_target("too-late", std::move(more)), std::logic_error);
}

// ---------- the statistics the survey's compare() sits on ----------

TEST(PairDifference, MismatchedLengthsThrow) {
  const std::vector<double> a{0.1, 0.2, 0.3};
  const std::vector<double> b{0.1, 0.2};
  EXPECT_THROW(stats::pair_difference_test(a, b), std::invalid_argument);
}

TEST(PairDifference, FewerThanTwoPairsThrow) {
  const std::vector<double> one{0.1};
  EXPECT_THROW(stats::pair_difference_test(one, one), std::invalid_argument);
  const std::vector<double> empty;
  EXPECT_THROW(stats::pair_difference_test(empty, empty), std::invalid_argument);
}

}  // namespace
}  // namespace reorder::core
