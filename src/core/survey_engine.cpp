#include "core/survey_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace reorder::core {

namespace {
metrics::SuiteFactory suite_factory_of(const SurveyEngine::Options& options) {
  return options.suite_factory ? options.suite_factory
                               : metrics::SuiteFactory{&metrics::default_suite};
}
}  // namespace

SurveyEngine::SurveyEngine(sim::EventLoop& loop, Options options)
    : loop_{loop}, options_{std::move(options)}, metrics_{suite_factory_of(options_)} {
  sinks_.add(metrics_sink_);
}

void SurveyEngine::add_sink(ResultSink& sink) {
  if (running()) {
    throw std::logic_error{"SurveyEngine: cannot attach sinks while a survey is running"};
  }
  sinks_.add(sink);
}

void SurveyEngine::add_target(const std::string& name, probe::ProbeHost& probe,
                              tcpip::Ipv4Address address, const std::vector<TestSpec>& tests) {
  std::vector<std::unique_ptr<ReorderTest>> built;
  built.reserve(tests.size());
  for (const auto& spec : tests) {
    built.push_back(TestRegistry::global().create(probe, address, spec));
  }
  add_target(name, std::move(built));
}

void SurveyEngine::add_target(std::string name, std::vector<std::unique_ptr<ReorderTest>> tests) {
  if (running()) {
    throw std::logic_error{"SurveyEngine: cannot add targets while a survey is running"};
  }
  auto target = std::make_unique<Target>(loop_);
  target->name = std::move(name);
  target->tests = std::move(tests);
  targets_.push_back(std::move(target));
}

void SurveyEngine::start(const TestRunConfig& config, int rounds,
                         util::Duration between_measurements, std::function<void()> on_complete) {
  if (running()) {
    throw std::logic_error{"SurveyEngine: survey already running"};
  }
  config_ = config;
  rounds_ = rounds;
  between_ = between_measurements;
  on_complete_ = std::move(on_complete);

  targets_in_flight_ = 0;
  for (auto& target : targets_) {
    target->next_test = 0;
    target->rounds_done = 0;
    if (rounds <= 0 || target->tests.empty()) continue;
    ++targets_in_flight_;
  }
  participants_ = targets_in_flight_;
  // Even an empty survey brackets its (empty) stream: sinks may key on
  // survey_end to know a capture is complete.
  sinks_.on_survey_begin(SurveyEvent{participants_, rounds_, measurements_.size(), loop_.now()});
  if (targets_in_flight_ == 0) {
    sinks_.on_survey_end(SurveyEvent{participants_, rounds_, measurements_.size(), loop_.now()});
    if (on_complete_) on_complete_();
    return;
  }
  // Kick every state machine off at the same instant; from here on each
  // target advances itself via completion callbacks.
  for (auto& target : targets_) {
    if (rounds <= 0 || target->tests.empty()) continue;
    Target* t = target.get();
    loop_.schedule(util::Duration::nanos(0), [this, t] { begin_next_measurement(*t); });
  }
}

void SurveyEngine::begin_next_measurement(Target& target) {
  if (target.rounds_done >= rounds_) {
    if (--targets_in_flight_ == 0) {
      sinks_.on_survey_end(SurveyEvent{participants_, rounds_, measurements_.size(), loop_.now()});
      if (on_complete_) on_complete_();
    }
    return;
  }
  const std::uint64_t generation = ++target.generation;
  target.measurement_open = true;
  const util::TimePoint at = loop_.now();
  target.deadline_at = at + options_.measurement_deadline;

  target.watchdog.arm(options_.measurement_deadline, [this, &target, generation, at] {
    TestRunResult timeout;
    timeout.test_name = target.tests[target.next_test]->name();
    timeout.admissible = false;
    timeout.note = "measurement did not complete";
    finish_measurement(target, generation, at, std::move(timeout));
  });

  // Injected target timeout: the target "never answers" this measurement.
  // Probing the fault point here — after the watchdog is armed, before
  // the test would send a packet — means the measurement runs its full
  // deadline and is then recorded inadmissible by the watchdog, exactly
  // like a real unresponsive host, with zero probe traffic in flight.
  if (options_.faults != nullptr &&
      options_.faults->should_fire(
          "target/" + target.name + "/test/" + std::string{target.tests[target.next_test]->name()},
          util::FaultInjector::Mode::kTargetTimeout)) {
    return;
  }

  target.tests[target.next_test]->run(
      config_, [this, &target, generation, at](TestRunResult result) {
        finish_measurement(target, generation, at, std::move(result));
      });
}

void SurveyEngine::finish_measurement(Target& target, std::uint64_t generation,
                                      util::TimePoint at, TestRunResult result) {
  // A stale completion: the watchdog already gave up on this measurement
  // and its run completed late. (A completion that arrives first cancels
  // the watchdog.)
  if (!target.measurement_open || generation != target.generation) return;
  // Abandoned-run residue guard: past the give-up deadline only the
  // watchdog itself (which fires AT the deadline, never after) may close
  // the measurement. A completion arriving later must not publish late
  // per-sample events into the sinks — the due watchdog records the
  // timeout instead. Unreachable while the watchdog is armed (the loop
  // runs it first), but the sink contract must not depend on that.
  if (loop_.now() > target.deadline_at) return;
  target.measurement_open = false;
  target.watchdog.cancel();

  record(target, at, std::move(result));

  if (++target.next_test == target.tests.size()) {
    target.next_test = 0;
    ++target.rounds_done;
  }
  loop_.schedule(between_, [this, &target] { begin_next_measurement(target); });
}

void SurveyEngine::record(Target& target, util::TimePoint at, TestRunResult result) {
  Measurement m;
  m.target = target.name;
  m.test = target.tests[target.next_test]->name();
  m.at = at;
  m.result = std::move(result);
  // Stream the completed measurement out before the next one begins: the
  // metric engine and every attached sink observe results in event-loop
  // order, mid-survey, not after the fact.
  publish_result(sinks_, m.target, m.test, m.at, m.result, measurements_.size());
  // The metric engine has folded the per-sample payload, and a sink that
  // needs it has kept it; unless a replay consumer asked for it, the
  // completion log retains only the summary so a long survey's dominant
  // data does not stay resident.
  if (!options_.retain_samples) {
    m.result.samples.clear();
    m.result.samples.shrink_to_fit();
  }
  measurements_.push_back(std::move(m));
}

std::vector<Measurement> SurveyEngine::release_measurements() {
  if (running()) {
    throw std::logic_error{"SurveyEngine: cannot release the log while a survey is running"};
  }
  return std::exchange(measurements_, {});
}

metrics::MetricEngine SurveyEngine::release_metrics() {
  if (running()) {
    throw std::logic_error{"SurveyEngine: cannot release the metrics while a survey is running"};
  }
  return std::exchange(metrics_, metrics::MetricEngine{suite_factory_of(options_)});
}

const std::vector<Measurement>& SurveyEngine::run(const TestRunConfig& config, int rounds,
                                                  util::Duration between_measurements) {
  bool done = false;
  start(config, rounds, between_measurements, [&done] { done = true; });
  // Generous outer bound: every measurement gets its full deadline plus
  // the pause, per target, per round.
  std::size_t max_tests = 0;
  for (const auto& t : targets_) max_tests = std::max(max_tests, t->tests.size());
  const util::Duration bound = (options_.measurement_deadline + between_measurements) *
                               static_cast<std::int64_t>(std::max(1, rounds) *
                                                         std::max<std::size_t>(1, max_tests));
  loop_.run_while(loop_.now() + bound + util::Duration::seconds(60), [&done] { return !done; });
  return measurements_;
}

}  // namespace reorder::core
