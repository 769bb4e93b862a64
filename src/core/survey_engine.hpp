// The paper's §IV-B driver, scaled out: a continuous survey cycles every
// technique against every target host. Where the old MeasurementSession
// ran one blocking test at a time, SurveyEngine runs one state machine
// per target on a single event loop — each target advances through its
// test cycle via completion callbacks, so measurements against many hosts
// interleave in virtual time exactly the way a production surveyor
// interleaves them in wall time.
//
// Results stream: every completed measurement is published to the
// attached ResultSinks (per-sample events, then the measurement event) in
// event-loop order, while the survey is still running. The engine's own
// metrics::MetricEngine is fed first; every query (rate_series /
// aggregate / compare / time_domain) is a snapshot read of it through
// metrics().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/reorder_test.hpp"
#include "core/result_sink.hpp"
#include "core/test_registry.hpp"
#include "metrics/engine.hpp"
#include "netsim/event_loop.hpp"
#include "util/fault_injector.hpp"

namespace reorder::core {

/// One completed measurement in a survey. The engine's completion log
/// keeps only the summary: `result.samples` is emptied after the
/// measurement streams to the sinks (a sink that needs the per-sample
/// data keeps it), unless Options::retain_samples is set.
struct Measurement {
  std::string target;
  std::string test;
  util::TimePoint at;
  TestRunResult result;
};

class SurveyEngine {
 public:
  struct Options {
    /// Give-up deadline per measurement; a test that has not completed by
    /// then is recorded as inadmissible and the cycle moves on. The
    /// abandoned run keeps running, and its late completion is dropped,
    /// until its test starts its next run or the engine is destroyed;
    /// either ends the run and frees everything it holds. Until then its
    /// residual probe traffic shares the target's path. Keep the deadline
    /// comfortably above the slowest test's worst case rather than using
    /// it as a pacing knob.
    util::Duration measurement_deadline{util::Duration::seconds(600)};
    /// Keep each Measurement's per-sample payload in the completion log.
    /// Off by default (it is a long survey's dominant data, and the
    /// metric engine has already folded it); the survey service turns it
    /// on so the merged log can replay full event streams through the
    /// canonical emission path.
    bool retain_samples{false};
    /// Builds the metric suite of each (target, test) key in metrics();
    /// null uses metrics::default_suite.
    metrics::SuiteFactory suite_factory{};
    /// Deterministic fault injection (not owned; may be null). A
    /// kTargetTimeout plan firing at site "target/<name>/test/<test>"
    /// makes that measurement behave like a target that never answers:
    /// the test is not started and the watchdog records the timeout as
    /// an inadmissible measurement at the deadline — the paper's
    /// uncooperative-host case, reproducible from the injector's seed.
    util::FaultInjector* faults{nullptr};
  };

  explicit SurveyEngine(sim::EventLoop& loop) : SurveyEngine{loop, Options{}} {}
  SurveyEngine(sim::EventLoop& loop, Options options);

  /// Attaches a streaming sink (not owned; must outlive the engine). The
  /// engine's own metric engine sees every measurement first; added sinks
  /// see every event after it, in attachment order. Must not be called
  /// while a survey is running.
  void add_sink(ResultSink& sink);

  /// The streaming metrics engine: one metric suite per (target, test),
  /// updated mid-survey in event-loop order, mergeable with other
  /// shards' engines. Every survey query is a snapshot read of it.
  const metrics::MetricEngine& metrics() const { return metrics_; }

  /// Registers a target whose test suite is built through the global
  /// TestRegistry.
  void add_target(const std::string& name, probe::ProbeHost& probe, tcpip::Ipv4Address address,
                  const std::vector<TestSpec>& tests);

  /// Registers a target with pre-built tests (owned by the engine).
  void add_target(std::string name, std::vector<std::unique_ptr<ReorderTest>> tests);

  std::size_t target_count() const { return targets_.size(); }

  /// Starts every target's measurement cycle concurrently: each target
  /// runs its tests in order, pausing `between_measurements` of virtual
  /// time after each, for `rounds` full cycles. Returns immediately; the
  /// caller drives the event loop. `on_complete` fires once, when the last
  /// target finishes. Must not be called while a survey is running.
  void start(const TestRunConfig& config, int rounds, util::Duration between_measurements,
             std::function<void()> on_complete = {});

  /// True while any target still has measurements outstanding.
  bool running() const { return targets_in_flight_ > 0; }

  /// Synchronous convenience: start() and drive the loop to completion.
  const std::vector<Measurement>& run(const TestRunConfig& config, int rounds,
                                      util::Duration between_measurements);

  /// Every measurement taken, in completion order.
  const std::vector<Measurement>& measurements() const { return measurements_; }

  /// Moves the completion log out of the engine (it is left empty). The
  /// survey service uses this to hand a finished world's log to the merge
  /// without copying retained sample payloads. Must not be called while a
  /// survey is running.
  std::vector<Measurement> release_measurements();

  /// Moves the metric engine out (an empty one takes its place), so a
  /// finished world's metrics reach the merge without being copied. Must
  /// not be called while a survey is running.
  metrics::MetricEngine release_metrics();

 private:
  struct Target {
    explicit Target(sim::EventLoop& loop) : watchdog{loop} {}

    std::string name;
    std::vector<std::unique_ptr<ReorderTest>> tests;
    std::size_t next_test{0};
    int rounds_done{0};
    /// Guards against stale completions: a run the watchdog gave up on
    /// may still complete later, so each completion carries the
    /// generation it belongs to and only the live generation counts.
    std::uint64_t generation{0};
    bool measurement_open{false};
    sim::Timer watchdog;  ///< the open measurement's give-up deadline
    /// Instant past which the open measurement may no longer publish: the
    /// watchdog records the timeout, and any completion arriving later is
    /// abandoned-run residue that must not reach the sinks.
    util::TimePoint deadline_at{};
  };

  void begin_next_measurement(Target& target);
  void finish_measurement(Target& target, std::uint64_t generation, util::TimePoint at,
                          TestRunResult result);
  void record(Target& target, util::TimePoint at, TestRunResult result);

  sim::EventLoop& loop_;
  Options options_;
  std::vector<std::unique_ptr<Target>> targets_;
  /// Completion-order log (the legacy poll API); queries go to metrics_.
  std::vector<Measurement> measurements_;
  metrics::MetricEngine metrics_;
  metrics::EngineSink metrics_sink_{metrics_};
  SinkFanout sinks_;

  TestRunConfig config_{};
  int rounds_{0};
  util::Duration between_{};
  std::function<void()> on_complete_;
  std::size_t targets_in_flight_{0};
  /// Targets participating in the current survey (for lifecycle events).
  std::size_t participants_{0};
};

}  // namespace reorder::core
