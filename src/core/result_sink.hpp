// The streaming side of the measurement pipeline.
//
// Results used to be poll-only: drivers buffered every TestRunResult and
// callers read a (target, test) map after the fact. A ResultSink inverts
// that — it is an observer the drivers publish into *as results arrive*,
// with three granularities:
//
//   on_sample       one two-packet verdict (the paper's primitive unit)
//   on_measurement  one completed test run (a batch of samples)
//   on_survey_*     lifecycle brackets around a whole survey
//
// SurveyEngine fans every completed measurement out to its attached
// sinks in event-loop order; single-test drivers (benches, examples) use
// publish_result() to feed the same sinks from a run_sync completion.
// metrics::EngineSink (the metric engine's intake) is one sink; the JSONL
// emitter and the narrator are others. Sinks compose: SinkFanout is a
// sink too.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/verdict.hpp"

namespace reorder::core {

/// One sample verdict flowing out of a measurement. The `sample` reference
/// is only valid for the duration of the callback.
struct SampleEvent {
  std::string_view target;
  std::string_view test;
  /// Index of the enclosing measurement in the publisher's completion
  /// order, and of this sample within it.
  std::size_t measurement_index{0};
  std::size_t sample_index{0};
  /// When the enclosing measurement started.
  util::TimePoint at;
  const SampleResult& sample;
};

/// One completed measurement (a test run against one target). The `result`
/// reference is only valid for the duration of the callback.
struct MeasurementEvent {
  std::string_view target;
  std::string_view test;
  std::size_t measurement_index{0};
  /// When the measurement started.
  util::TimePoint at;
  const TestRunResult& result;
};

/// Survey lifecycle marker (begin and end).
struct SurveyEvent {
  std::size_t targets{0};
  int rounds{0};
  /// Measurements completed so far (0 at begin).
  std::size_t measurements{0};
  util::TimePoint at;
  // Degraded-mode accounting (meaningful on survey_end; new fields sit
  // last so existing positional initializers keep their meaning). A
  // survey is degraded when some shard exhausted its retry budget: its
  // targets took no measurements, `targets` counts only participants,
  // and the absentees are named here so the fleet is fully accounted for.
  bool degraded{false};
  std::size_t failed_shards{0};
  std::vector<std::string> failed_targets{};
};

/// Streaming observer of measurement results. All callbacks default to
/// no-ops so sinks implement only the granularity they care about.
/// Publishers guarantee the order: survey_begin, then for each completed
/// measurement its samples (in sample order) followed by the measurement
/// itself, then survey_end.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void on_survey_begin(const SurveyEvent&) {}
  virtual void on_sample(const SampleEvent&) {}
  virtual void on_measurement(const MeasurementEvent&) {}
  virtual void on_survey_end(const SurveyEvent&) {}
};

/// Fans every event out to N sinks in attachment order. Being a sink
/// itself, fanouts nest.
class SinkFanout final : public ResultSink {
 public:
  /// Attaches a sink (not owned; must outlive the fanout).
  void add(ResultSink& sink) { sinks_.push_back(&sink); }
  std::size_t size() const { return sinks_.size(); }

  void on_survey_begin(const SurveyEvent& e) override {
    for (auto* s : sinks_) s->on_survey_begin(e);
  }
  void on_sample(const SampleEvent& e) override {
    for (auto* s : sinks_) s->on_sample(e);
  }
  void on_measurement(const MeasurementEvent& e) override {
    for (auto* s : sinks_) s->on_measurement(e);
  }
  void on_survey_end(const SurveyEvent& e) override {
    for (auto* s : sinks_) s->on_survey_end(e);
  }

 private:
  std::vector<ResultSink*> sinks_;
};

/// Publishes one completed run as its event stream — per-sample events in
/// sample order, then the measurement event. This is how single-test
/// drivers (run_sync call sites) feed the same sinks the survey engine
/// publishes into.
void publish_result(ResultSink& sink, std::string_view target, std::string_view test,
                    util::TimePoint at, const TestRunResult& result,
                    std::size_t measurement_index = 0);

}  // namespace reorder::core
