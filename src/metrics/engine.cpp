#include "metrics/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "metrics/pair_metrics.hpp"
#include "metrics/restore.hpp"

namespace reorder::metrics {

MetricSuite default_suite(std::string_view target, std::string_view test) {
  (void)target;
  (void)test;
  MetricSuite suite;
  suite.add(std::make_unique<PairRateMetric>())
      .add(std::make_unique<RateSeriesMetric>())
      .add(std::make_unique<TimeDomainMetric>())
      .add(std::make_unique<RateEcdfMetric>())
      .add(std::make_unique<LateTimeMetric>());
  return suite;
}

MetricEngine::Entry& MetricEngine::entry(std::string_view target, std::string_view test) {
  Key key{target, test};
  const auto it = entries_.lower_bound(key);
  if (it != entries_.end() && it->first == key) return it->second;
  return entries_.emplace_hint(it, std::move(key), Entry{factory_(target, test)})->second;
}

const MetricEngine::Entry* MetricEngine::find(const std::string& target,
                                              const std::string& test) const {
  const auto it = entries_.find(Key{target, test});
  return it == entries_.end() ? nullptr : &it->second;
}

void MetricEngine::observe_measurement(const core::MeasurementEvent& e) {
  Entry& en = entry(e.target, e.test);
  ++en.measurements;
  if (!e.result.admissible) return;
  ++en.admissible;
  // Replay the measurement's samples (the queries' per-sample data is
  // gated on the measurement being admissible, known only now). Each
  // usable forward verdict is also fed as the degenerate length-2
  // arrival sequence, so sequence metrics plugged in via the suite
  // factory accumulate from pair streams too (closed per sample — the
  // boundary the mergeability contract needs).
  for (std::size_t i = 0; i < e.result.samples.size(); ++i) {
    const core::SampleResult& sample = e.result.samples[i];
    en.suite.observe(
        core::SampleEvent{e.target, e.test, e.measurement_index, i, e.at, sample});
    if (sample.forward == core::Ordering::kInOrder) {
      en.suite.observe_arrival(0);
      en.suite.observe_arrival(1);
      en.suite.end_sequence();
    } else if (sample.forward == core::Ordering::kReordered) {
      en.suite.observe_arrival(1);
      en.suite.observe_arrival(0);
      en.suite.end_sequence();
    }
  }
  en.suite.observe_measurement(e);
}

std::vector<std::pair<std::string, std::string>> MetricEngine::keys() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.push_back(key);
  return out;
}

const MetricSuite* MetricEngine::suite(const std::string& target, const std::string& test) const {
  const Entry* e = find(target, test);
  return e == nullptr ? nullptr : &e->suite;
}

std::uint64_t MetricEngine::measurements(const std::string& target,
                                         const std::string& test) const {
  const Entry* e = find(target, test);
  return e == nullptr ? 0 : e->measurements;
}

std::uint64_t MetricEngine::admissible_measurements(const std::string& target,
                                                    const std::string& test) const {
  const Entry* e = find(target, test);
  return e == nullptr ? 0 : e->admissible;
}

core::ReorderEstimate MetricEngine::aggregate(const std::string& target, const std::string& test,
                                              bool forward) const {
  const Entry* e = find(target, test);
  if (e == nullptr) return {};
  const auto* rates = e->suite.get<PairRateMetric>(PairRateMetric::kName);
  if (rates == nullptr) return {};
  return forward ? rates->forward() : rates->reverse();
}

std::vector<double> MetricEngine::rate_series(const std::string& target, const std::string& test,
                                              bool forward) const {
  const Entry* e = find(target, test);
  if (e == nullptr) return {};
  const auto* series = e->suite.get<RateSeriesMetric>(RateSeriesMetric::kName);
  if (series == nullptr) return {};
  return forward ? series->forward() : series->reverse();
}

core::TimeDomainProfile MetricEngine::time_domain(const std::string& target,
                                                  const std::string& test) const {
  const Entry* e = find(target, test);
  if (e == nullptr) return {};
  const auto* td = e->suite.get<TimeDomainMetric>(TimeDomainMetric::kName);
  if (td == nullptr) return {};
  return td->profile();
}

stats::PairDifferenceResult MetricEngine::compare(const std::string& target,
                                                  const std::string& test_a,
                                                  const std::string& test_b, bool forward,
                                                  double confidence) const {
  auto a = rate_series(target, test_a, forward);
  auto b = rate_series(target, test_b, forward);
  const std::size_t n = std::min(a.size(), b.size());
  a.resize(n);
  b.resize(n);
  return stats::pair_difference_test(a, b, confidence);
}

void MetricEngine::merge(const MetricEngine& other) {
  for (const auto& [key, theirs] : other.entries_) {
    const auto it = entries_.lower_bound(key);
    if (it == entries_.end() || it->first != key) {
      entries_.emplace_hint(it, key,
                            Entry{theirs.suite.snapshot(), theirs.measurements, theirs.admissible});
      continue;
    }
    Entry& mine = it->second;
    mine.suite.merge(theirs.suite);
    mine.measurements += theirs.measurements;
    mine.admissible += theirs.admissible;
  }
}

report::Json MetricEngine::to_json() const {
  return report::Json::rendered([&](report::JsonWriter& w) {
    w.begin_object();
    for (const auto& [key, e] : entries_) {
      w.key(key.first + "/" + key.second)
          .begin_object()
          .key("measurements").number(e.measurements)
          .key("admissible").number(e.admissible)
          .key("metrics");
      e.suite.write_json(w);
      w.end_object();
    }
    w.end_object();
  });
}

void MetricEngine::write_record(report::JsonWriter& w, const Key& key, const Entry& e) {
  w.begin_object()
      .key("type").string("metrics")
      .key("target").string(key.first)
      .key("test").string(key.second)
      .key("measurements").number(e.measurements)
      .key("admissible").number(e.admissible)
      .key("metrics");
  e.suite.write_json(w);
  w.end_object();
}

std::vector<report::Json> MetricEngine::records() const {
  std::vector<report::Json> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    out.push_back(report::Json::rendered([&](report::JsonWriter& w) { write_record(w, key, e); }));
  }
  return out;
}

void MetricEngine::emit_jsonl(report::JsonlWriter& out) const {
  for (const auto& [key, e] : entries_) {
    out.write_line([&](report::JsonWriter& w) { write_record(w, key, e); });
  }
}

void MetricEngine::append_records(report::JsonlLines& out) const {
  for (const auto& [key, e] : entries_) {
    out.append_line([&](report::JsonWriter& w) { write_record(w, key, e); });
  }
}

void MetricEngine::append_records(std::string_view target, report::JsonlLines& out) const {
  for (auto it = entries_.lower_bound(Key{target, ""});
       it != entries_.end() && it->first.first == target; ++it) {
    out.append_line([&](report::JsonWriter& w) { write_record(w, it->first, it->second); });
  }
}

void MetricEngine::write_records(report::JsonWriter& w) const {
  for (const auto& [key, e] : entries_) write_record(w, key, e);
}

void MetricEngine::restore_record(const report::Json& record) {
  Key key{record.at("target").as_string(), record.at("test").as_string()};
  const auto it = entries_.lower_bound(key);
  if (it != entries_.end() && it->first == key) {
    throw std::invalid_argument{"MetricEngine::restore_record: duplicate key " + key.first +
                                "/" + key.second};
  }
  Entry e{suite_from_json(record.at("metrics")), record.at("measurements").as_u64(),
          record.at("admissible").as_u64()};
  entries_.emplace_hint(it, std::move(key), std::move(e));
}

}  // namespace reorder::metrics
