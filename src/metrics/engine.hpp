// The streaming metrics engine: one MetricSuite per (target, test),
// fed from the ResultSink event stream, queried through snapshots, and
// exactly mergeable across shards.
//
// Admissibility gating: the session-era queries only count samples of
// admissible measurements, but a sample event streams BEFORE its
// enclosing measurement's admissibility is known. The engine therefore
// consumes the measurement event (whose TestRunResult still carries the
// full sample vector during the callback): it replays the samples of
// admissible measurements into the suite and drops inadmissible ones —
// still one pass over every sample, with nothing staged across events.
//
// Sharding: run one engine per shard (per thread, per machine), then
// MetricEngine::merge the snapshots — per-key suites combine member-wise
// and the result is bit-identical to one engine having seen the whole
// stream (the mergeability contract in metric.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/result_sink.hpp"
#include "metrics/metric.hpp"
#include "report/jsonl.hpp"
#include "stats/pair_difference.hpp"

namespace reorder::metrics {

/// Builds the metric suite a fresh (target, test) key starts with — the
/// pluggability point: swap the factory to attach custom metrics.
using SuiteFactory = std::function<MetricSuite(std::string_view target, std::string_view test)>;

/// The standard suite: pair_rate, rate_series, time_domain, rate_ecdf,
/// late_time.
MetricSuite default_suite(std::string_view target, std::string_view test);

class MetricEngine {
 public:
  MetricEngine() : MetricEngine{&default_suite} {}
  explicit MetricEngine(SuiteFactory factory) : factory_{std::move(factory)} {}

  MetricEngine(MetricEngine&&) = default;
  MetricEngine& operator=(MetricEngine&&) = default;

  // ------------------------------------------------------ event intake
  /// Folds one completed measurement (and, when admissible, its samples)
  /// into the (target, test) suite.
  void observe_measurement(const core::MeasurementEvent& e);

  // ------------------------------------------------------------- shape
  std::size_t key_count() const { return entries_.size(); }
  /// (target, test) keys in canonical (lexicographic) order, the one order
  /// of every read and emission: a pure function of the key set.
  std::vector<std::pair<std::string, std::string>> keys() const;
  /// The suite accumulated for (target, test), or nullptr.
  const MetricSuite* suite(const std::string& target, const std::string& test) const;
  std::uint64_t measurements(const std::string& target, const std::string& test) const;
  std::uint64_t admissible_measurements(const std::string& target,
                                        const std::string& test) const;

  // ------------------------------------------- session-era query shims
  // Snapshot reads of the standard suite's metrics; empty defaults (no
  // estimate, empty series) when the key or metric is absent.
  core::ReorderEstimate aggregate(const std::string& target, const std::string& test,
                                  bool forward) const;
  std::vector<double> rate_series(const std::string& target, const std::string& test,
                                  bool forward) const;
  core::TimeDomainProfile time_domain(const std::string& target, const std::string& test) const;
  /// Paired comparison of two tests on one target over the engine's rate
  /// series (truncated to the shorter; needs >= 2 pairs).
  stats::PairDifferenceResult compare(const std::string& target, const std::string& test_a,
                                      const std::string& test_b, bool forward,
                                      double confidence = 0.999) const;

  // -------------------------------------------------------- merge/emit
  /// Folds another engine's accumulators into this one. Keys present on
  /// both sides merge suite-wise (compositions must match); keys unique
  /// to `other` are deep-copied in.
  void merge(const MetricEngine& other);

  /// {"<target>/<test>": {"measurements":..,"admissible":..,
  ///   "metrics": <suite.write_json()>}, ...} in canonical key order.
  report::Json to_json() const;

  /// One `metrics` record per key, in canonical key order:
  ///   {"type":"metrics","target":..,"test":..,"measurements":..,
  ///    "admissible":..,"metrics":{...}}
  /// Every rendering below writes these records through one renderer;
  /// records() parses its bytes back into trees.
  std::vector<report::Json> records() const;
  /// Streams the records one line at a time, never holding them all.
  void emit_jsonl(report::JsonlWriter& out) const;
  /// Appends every record, one line each.
  void append_records(report::JsonlLines& out) const;
  /// Appends the records of `target`'s keys, in test order: the records
  /// in chunks, for callers that render targets in canonical order on
  /// several threads (concurrent const calls are safe).
  void append_records(std::string_view target, report::JsonlLines& out) const;
  /// Writes every record as the next value of `w` (the elements of an
  /// array the caller opened).
  void write_records(report::JsonWriter& w) const;

  /// Rebuilds one (target, test) entry from an emit_jsonl `metrics`
  /// record (suite restored via metrics::suite_from_json, bypassing the
  /// factory). The checkpoint/resume and reorder-merge ingestion point.
  /// Throws std::invalid_argument when the key is already present — a
  /// record stream with duplicates should be merged engine-wise instead.
  void restore_record(const report::Json& record);

 private:
  using Key = std::pair<std::string, std::string>;  // (target, test)
  struct Entry {
    MetricSuite suite;
    std::uint64_t measurements{0};
    std::uint64_t admissible{0};
  };

  Entry& entry(std::string_view target, std::string_view test);
  const Entry* find(const std::string& target, const std::string& test) const;
  static void write_record(report::JsonWriter& w, const Key& key, const Entry& e);

  SuiteFactory factory_;
  std::map<Key, Entry> entries_;
};

/// The ResultSink adapter: attach to a SurveyEngine / run_scenario (or
/// feed via publish_result) to stream every event into an engine.
class EngineSink final : public core::ResultSink {
 public:
  explicit EngineSink(MetricEngine& engine) : engine_{engine} {}

  void on_measurement(const core::MeasurementEvent& e) override {
    engine_.observe_measurement(e);
  }

 private:
  MetricEngine& engine_;
};

}  // namespace reorder::metrics
