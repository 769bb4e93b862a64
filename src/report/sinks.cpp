#include "report/sinks.hpp"

namespace reorder::report {

void write_survey_event(JsonWriter& w, const char* type, const core::SurveyEvent& e) {
  w.begin_object()
      .key("type").string(type)
      .key("targets").number(e.targets)
      .key("rounds").number(e.rounds)
      .key("measurements").number(e.measurements)
      .key("at_ns").number(e.at.ns());
  if (std::string_view{type} == "survey_end") {
    // The fleet-accounting tail: `targets` above counts participants;
    // degraded runs name their absentees so participants + failed_targets
    // always account for the configured fleet.
    w.key("degraded").boolean(e.degraded).key("failed_shards").number(e.failed_shards);
    w.key("failed_targets").begin_array();
    for (const auto& name : e.failed_targets) w.string(name);
    w.end_array();
  }
  w.end_object();
}

void write_json(JsonWriter& w, const core::ReorderEstimate& estimate, std::optional<double> rate) {
  w.begin_object()
      .key("in_order").number(estimate.in_order)
      .key("reordered").number(estimate.reordered)
      .key("ambiguous").number(estimate.ambiguous)
      .key("lost").number(estimate.lost);
  if (rate) w.key("rate").number(*rate);
  w.end_object();
}

void write_json(JsonWriter& w, const core::SampleEvent& e) {
  w.begin_object()
      .key("type").string("sample")
      .key("target").string(e.target)
      .key("test").string(e.test)
      .key("measurement").number(e.measurement_index)
      .key("sample").number(e.sample_index)
      .key("fwd").string(core::to_string(e.sample.forward))
      .key("rev").string(core::to_string(e.sample.reverse))
      .key("gap_ns").number(e.sample.gap.ns())
      .key("started_ns").number(e.sample.started.ns())
      .key("completed_ns").number(e.sample.completed.ns())
      .end_object();
}

void write_json(JsonWriter& w, const core::MeasurementEvent& e) {
  w.begin_object()
      .key("type").string("measurement")
      .key("target").string(e.target)
      .key("test").string(e.test)
      .key("measurement").number(e.measurement_index)
      .key("at_ns").number(e.at.ns())
      .key("admissible").boolean(e.result.admissible)
      .key("samples").number(e.result.samples.size())
      .key("note").string(e.result.note)
      .key("fwd");
  write_json(w, e.result.forward);
  w.key("rev");
  write_json(w, e.result.reverse);
  w.end_object();
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
  out_.write_line([&](JsonWriter& w) { write_survey_event(w, "survey_begin", e); });
}

void JsonlResultSink::on_sample(const core::SampleEvent& e) {
  out_.write_line([&](JsonWriter& w) { write_json(w, e); });
}

void JsonlResultSink::on_measurement(const core::MeasurementEvent& e) {
  out_.write_line([&](JsonWriter& w) { write_json(w, e); });
}

void JsonlResultSink::on_survey_end(const core::SurveyEvent& e) {
  out_.write_line([&](JsonWriter& w) { write_survey_event(w, "survey_end", e); });
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
