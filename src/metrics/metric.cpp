#include "metrics/metric.hpp"

#include <stdexcept>
#include <string>

namespace reorder::metrics {

report::Json Metric::to_json() const {
  return report::Json::rendered([&](report::JsonWriter& w) { write_json(w); });
}

MetricSuite& MetricSuite::add(std::unique_ptr<Metric> metric) {
  if (metric == nullptr) {
    throw std::invalid_argument{"MetricSuite::add: null metric"};
  }
  if (find(metric->name()) != nullptr) {
    throw std::invalid_argument{"MetricSuite::add: duplicate metric '" +
                                std::string{metric->name()} + "'"};
  }
  metrics_.push_back(std::move(metric));
  return *this;
}

const Metric* MetricSuite::find(std::string_view name) const {
  for (const auto& m : metrics_) {
    if (m->name() == name) return m.get();
  }
  return nullptr;
}

void MetricSuite::observe(const core::SampleEvent& e) {
  for (auto& m : metrics_) m->observe(e);
}

void MetricSuite::observe_measurement(const core::MeasurementEvent& e) {
  for (auto& m : metrics_) m->observe_measurement(e);
}

void MetricSuite::observe_arrival(std::uint32_t send_index) {
  for (auto& m : metrics_) m->observe_arrival(send_index);
}

// Cache-line aligned, like every batch entry point of the ingest path, so
// its speed does not move with the size of unrelated code linked before it.
[[gnu::aligned(64)]] void MetricSuite::observe_arrivals(const std::uint32_t* send_indices,
                                                      std::size_t count) {
  for (auto& m : metrics_) m->observe_arrivals(send_indices, count);
}

void MetricSuite::end_sequence() {
  for (auto& m : metrics_) m->end_sequence();
}

MetricSuite MetricSuite::snapshot() const {
  MetricSuite out;
  out.metrics_.reserve(metrics_.size());
  for (const auto& m : metrics_) out.metrics_.push_back(m->snapshot());
  return out;
}

void MetricSuite::merge(const MetricSuite& other) {
  if (other.metrics_.size() != metrics_.size()) {
    throw std::invalid_argument{"MetricSuite::merge: suite compositions differ"};
  }
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    metrics_[i]->merge(*other.metrics_[i]);
  }
}

void MetricSuite::write_json(report::JsonWriter& w) const {
  w.begin_object();
  for (const auto& m : metrics_) {
    w.key(m->name());
    m->write_json(w);
  }
  w.end_object();
}

report::Json MetricSuite::to_json() const {
  return report::Json::rendered([&](report::JsonWriter& w) { write_json(w); });
}

}  // namespace reorder::metrics
