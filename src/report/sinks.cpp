#include "report/sinks.hpp"

namespace reorder::report {

Json survey_event_json(const char* type, const core::SurveyEvent& e) {
  Json j = Json::object();
  j.set("type", type);
  j.set("targets", e.targets);
  j.set("rounds", e.rounds);
  j.set("measurements", e.measurements);
  j.set("at_ns", e.at.ns());
  if (std::string_view{type} == "survey_end") {
    // The fleet-accounting tail: `targets` above counts participants;
    // degraded runs name their absentees so participants + failed_targets
    // always account for the configured fleet.
    j.set("degraded", e.degraded);
    j.set("failed_shards", e.failed_shards);
    Json failed = Json::array();
    for (const auto& name : e.failed_targets) failed.push(name);
    j.set("failed_targets", std::move(failed));
  }
  return j;
}

Json to_json(const core::ReorderEstimate& estimate) {
  Json j = Json::object();
  j.set("in_order", estimate.in_order);
  j.set("reordered", estimate.reordered);
  j.set("ambiguous", estimate.ambiguous);
  j.set("lost", estimate.lost);
  return j;
}

Json to_json(const core::SampleEvent& e) {
  Json j = Json::object();
  j.set("type", "sample");
  j.set("target", e.target);
  j.set("test", e.test);
  j.set("measurement", e.measurement_index);
  j.set("sample", e.sample_index);
  j.set("fwd", core::to_string(e.sample.forward));
  j.set("rev", core::to_string(e.sample.reverse));
  j.set("gap_ns", e.sample.gap.ns());
  j.set("started_ns", e.sample.started.ns());
  j.set("completed_ns", e.sample.completed.ns());
  return j;
}

Json to_json(const core::MeasurementEvent& e) {
  Json j = Json::object();
  j.set("type", "measurement");
  j.set("target", e.target);
  j.set("test", e.test);
  j.set("measurement", e.measurement_index);
  j.set("at_ns", e.at.ns());
  j.set("admissible", e.result.admissible);
  j.set("samples", e.result.samples.size());
  j.set("note", e.result.note);
  j.set("fwd", to_json(e.result.forward));
  j.set("rev", to_json(e.result.reverse));
  return j;
}

core::ReorderEstimate estimate_from_json(const Json& j) {
  core::ReorderEstimate e;
  e.in_order = j.at("in_order").as_u64();
  e.reordered = j.at("reordered").as_u64();
  e.ambiguous = j.at("ambiguous").as_u64();
  e.lost = j.at("lost").as_u64();
  return e;
}

void JsonlResultSink::on_survey_begin(const core::SurveyEvent& e) {
  out_.write(survey_event_json("survey_begin", e));
}

void JsonlResultSink::on_sample(const core::SampleEvent& e) {
  out_.write(to_json(e));
}

void JsonlResultSink::on_measurement(const core::MeasurementEvent& e) {
  out_.write(to_json(e));
}

void JsonlResultSink::on_survey_end(const core::SurveyEvent& e) {
  out_.write(survey_event_json("survey_end", e));
}

void NarratingSink::on_survey_begin(const core::SurveyEvent& e) {
  std::fprintf(out_, "survey begins: %zu targets x %d rounds\n", e.targets, e.rounds);
  if (policy_.every != 0 && policy_.first != 0) {
    std::fprintf(out_, "completions (first %zu, then every %zu):\n", policy_.first,
                 policy_.every);
  } else if (policy_.every != 0) {
    std::fprintf(out_, "completions (every %zu):\n", policy_.every);
  } else if (policy_.first != 0) {
    std::fprintf(out_, "first completions (note the targets interleaving):\n");
  }
}

void NarratingSink::on_measurement(const core::MeasurementEvent& e) {
  if (!tick()) return;
  std::fprintf(out_, "  t=%8.3fs  %-8.*s %.*s\n", e.at.seconds_f(),
               static_cast<int>(e.target.size()), e.target.data(),
               static_cast<int>(e.test.size()), e.test.data());
}

void NarratingSink::on_survey_end(const core::SurveyEvent& e) {
  // Deliberately quiet policies ({0,0}) skip the truncation marker too.
  if (narrated_ < seen_ && (policy_.first != 0 || policy_.every != 0)) {
    std::fprintf(out_, "  ... (%zu of %zu completions narrated)\n", narrated_, seen_);
  }
  std::fprintf(out_, "survey complete: %zu measurements by t=%.1fs\n\n", e.measurements,
               e.at.seconds_f());
}

}  // namespace reorder::report
