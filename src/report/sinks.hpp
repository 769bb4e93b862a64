// ResultSink implementations that serialize the measurement event stream.
//
// JsonlResultSink is the canonical machine-readable consumer: every
// survey event becomes one JSON object per line, written as it arrives
// (streaming — nothing is buffered until "the end"). The line schema is
// documented in the README ("JSONL schema"). Each record has one
// renderer below, writing through a JsonWriter with no tree: the sink,
// the survey service's emission and reorder-merge all call it. Counts
// read back into estimates with estimate_from_json, which the golden
// round-trip tests use.
//
//   {"type":"survey_begin","targets":200,"rounds":1,"measurements":0,"at_ns":0}
//   {"type":"sample","target":"host-100","test":"syn","measurement":7,
//    "sample":6,"fwd":"reordered","rev":"in-order","gap_ns":0,
//    "started_ns":3780571760,"completed_ns":3800592560}
//   {"type":"measurement","target":"host-100","test":"syn","measurement":7,
//    "at_ns":3540468080,"admissible":true,"samples":15,"note":"",
//    "fwd":{"in_order":14,"reordered":1,"ambiguous":0,"lost":0},
//    "rev":{"in_order":15,"reordered":0,"ambiguous":0,"lost":0}}
//   {"type":"survey_end","targets":200,"rounds":1,"measurements":400,
//    "at_ns":7090865200,"degraded":false,"failed_shards":0,"failed_targets":[]}
//
// Rates are deliberately not stored — they are derivable from the counts,
// and re-deriving them is exactly what the round-trip test checks.
#pragma once

#include <cstdio>
#include <optional>

#include "core/result_sink.hpp"
#include "report/jsonl.hpp"

namespace reorder::report {

/// Rate limit for human-facing narration. Per-event output is readable at
/// 8 targets and unusable at a million, so a policy admits the first
/// `first` events in full and every `every`-th one after that — counting
/// ADMITTED-STREAM position, so the sampling cadence is stable however
/// large the run grows.
struct NarrationPolicy {
  /// Events narrated unconditionally, from the start.
  std::size_t first{16};
  /// Beyond `first`, narrate every Nth event; 0 = quiet after `first`.
  std::size_t every{0};

  bool admits(std::size_t n) const {
    if (n < first) return true;
    return every != 0 && (n - first) % every == 0;
  }

  /// The survey_fleet / survey_service default: full narration
  /// (`full_limit` events, then quiet) for fleets up to 10k targets;
  /// above that, a short head then roughly one line per 10k events.
  static NarrationPolicy auto_for(std::size_t targets, std::size_t full_limit) {
    if (targets <= 10'000) return NarrationPolicy{full_limit, 0};
    return NarrationPolicy{16, 10'000};
  }

  /// The --narrate-every flag: negative = auto_for, 0 = fully quiet,
  /// N >= 1 = every Nth event from the start.
  static NarrationPolicy from_flag(std::int64_t narrate_every, std::size_t targets,
                                   std::size_t full_limit) {
    if (narrate_every < 0) return auto_for(targets, full_limit);
    if (narrate_every == 0) return NarrationPolicy{0, 0};
    return NarrationPolicy{0, static_cast<std::size_t>(narrate_every)};
  }
};

/// Prints completions as a survey publishes them — mid-run, in event
/// order — under a NarrationPolicy rate limit. The human-facing
/// counterpart of JsonlResultSink; the examples attach one of each.
class NarratingSink final : public core::ResultSink {
 public:
  explicit NarratingSink(NarrationPolicy policy, std::FILE* out = stdout)
      : policy_{policy}, out_{out} {}

  void on_survey_begin(const core::SurveyEvent& e) override;
  void on_measurement(const core::MeasurementEvent& e) override;
  void on_survey_end(const core::SurveyEvent& e) override;

  /// Events narrated / seen so far.
  std::size_t narrated() const { return narrated_; }
  std::size_t seen() const { return seen_; }

  /// The policy's admit-and-count step, exposed for narrators that are
  /// not ResultSinks (the service's per-target completion callback).
  bool tick() {
    const bool print = policy_.admits(seen_++);
    if (print) ++narrated_;
    return print;
  }

 private:
  NarrationPolicy policy_;
  std::FILE* out_;
  std::size_t seen_{0};
  std::size_t narrated_{0};
};

class JsonlResultSink final : public core::ResultSink {
 public:
  explicit JsonlResultSink(JsonlWriter& out) : out_{out} {}

  void on_survey_begin(const core::SurveyEvent& e) override;
  void on_sample(const core::SampleEvent& e) override;
  void on_measurement(const core::MeasurementEvent& e) override;
  void on_survey_end(const core::SurveyEvent& e) override;

 private:
  JsonlWriter& out_;
};

// ------------------------------------------- event <-> JSON conversions

/// {"in_order":..,"reordered":..,"ambiguous":..,"lost":..}: the counts
/// as the measurement records and the checkpoint carry them. `rate`, when
/// set, is appended as a last member (the pair_rate metric's form).
void write_json(JsonWriter& w, const core::ReorderEstimate& estimate,
                std::optional<double> rate = std::nullopt);
/// The `sample` record.
void write_json(JsonWriter& w, const core::SampleEvent& e);
/// The `measurement` record.
void write_json(JsonWriter& w, const core::MeasurementEvent& e);
/// The survey_begin / survey_end record (`type` selects which; survey_end
/// carries the degraded-mode accounting tail). Offline tools
/// (reorder-merge) write their lifecycle records through it too.
void write_survey_event(JsonWriter& w, const char* type, const core::SurveyEvent& e);

/// Rebuilds an estimate from a write_json(ReorderEstimate) object.
/// Throws (std::out_of_range / std::runtime_error) on schema mismatch.
core::ReorderEstimate estimate_from_json(const Json& j);

}  // namespace reorder::report
