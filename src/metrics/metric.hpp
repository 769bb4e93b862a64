// The unified streaming-metrics contract.
//
// Every analytic quantity the library reports — pair reorder rates,
// time-domain profiles, RFC 4737 sequence extents, RFC 5236 n-reordering,
// reorder/buffer-occupancy densities, tail quantiles — is a Metric: a
// one-pass online accumulator with an associative, exactly-mergeable
// snapshot. The contract every implementation must honor:
//
//   * observe*() is one-pass: O(1) or O(log n) per event, never a replay
//     of stored raw samples at query time;
//   * merge() over snapshots of a partitioned stream is bit-identical to
//     the single-pass batch result. Sample-level metrics merge exactly
//     under ANY contiguous split of the sample stream; sequence-level
//     metrics merge exactly under splits at sequence boundaries (which
//     the engine guarantees: a measurement's events publish atomically);
//   * write_json() is a pure function of the accumulated state, so equal
//     states render byte-identical JSON (what the property tests check).
//     It is each metric's one renderer: records write it straight into
//     their line, and to_json() is its bytes parsed back into a tree.
//
// This is what lets per-target / per-shard accumulators from concurrent
// SurveyEngine state machines (or from different machines entirely, via
// the JSONL metrics records) combine into exact fleet-wide aggregates.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/result_sink.hpp"
#include "report/json.hpp"

namespace reorder::metrics {

class Metric {
 public:
  virtual ~Metric() = default;

  /// Stable identifier; merge() pairs metrics by name, a suite's
  /// rendering keys on it.
  virtual std::string_view name() const = 0;

  // ------------------------------------------------- streaming updates
  // Implement the granularity the metric consumes; the rest are no-ops.
  /// One sample verdict (the paper's two-packet primitive).
  virtual void observe(const core::SampleEvent&) {}
  /// One completed measurement (after its samples were observed).
  virtual void observe_measurement(const core::MeasurementEvent&) {}
  /// One arrival in a packet sequence: the send index of the packet that
  /// just arrived (RFC 4737's stream model). Sequence metrics only.
  virtual void observe_arrival(std::uint32_t send_index) { (void)send_index; }
  /// A run of consecutive arrivals of the SAME sequence — the line-rate
  /// batched entry. MUST leave the metric in exactly the state that
  /// `count` observe_arrival() calls would (the bit-exactness contract
  /// the ingest tests enforce); the default delegation guarantees it,
  /// and overrides may only restate the same per-arrival recurrence.
  /// What batching buys is paid here once per run instead of once per
  /// arrival: the virtual dispatch, and the caller's per-flow lookup.
  virtual void observe_arrivals(const std::uint32_t* send_indices, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) observe_arrival(send_indices[i]);
  }
  /// Closes the current arrival sequence (sequence metrics only).
  virtual void end_sequence() {}

  /// Hints the metric's mutable tail state (e.g. growing vectors' ends)
  /// toward the core ahead of observe_arrivals(). Pure optimization: the
  /// batched ingest path calls it across a whole batch of runs so the
  /// misses overlap. Must not change observable state.
  virtual void prefetch_state() const {}

  // ---------------------------------------------------- snapshot/merge
  /// Deep copy of the accumulated state.
  virtual std::unique_ptr<Metric> snapshot() const = 0;
  /// Folds another accumulator of the same concrete type into this one.
  /// Throws std::invalid_argument on a type or name mismatch.
  virtual void merge(const Metric& other) = 0;

  /// Writes the current state as one JSON object (schema documented per
  /// metric and in the README's "Metrics" section). The rendering is
  /// LOSSLESS for closed (end_sequence'd) state: from_json of it
  /// reproduces an accumulator whose subsequent merge() and write_json()
  /// are bit-identical to the original's — the contract the
  /// checkpoint/resume layer depends on, property-tested per metric.
  virtual void write_json(report::JsonWriter& w) const = 0;

  /// write_json()'s rendering as a tree, for readers of single fields.
  report::Json to_json() const;

  /// Restores the accumulator from a write_json() rendering, replacing
  /// any current state. Open-sequence scratch state is not serialized: a
  /// snapshot is only taken at sequence boundaries (merge() enforces
  /// this by throwing on open sequences), so restored state is closed.
  /// Throws (std::out_of_range / std::runtime_error) on schema mismatch.
  virtual void from_json(const report::Json& j) = 0;

 protected:
  /// Downcast helper for merge(): checks name and concrete type.
  template <typename T>
  static const T& expect(const Metric& other, std::string_view name);
};

template <typename T>
const T& Metric::expect(const Metric& other, std::string_view name) {
  const T* typed = dynamic_cast<const T*>(&other);
  if (typed == nullptr || other.name() != name) {
    throw std::invalid_argument{"Metric::merge: cannot merge '" + std::string{other.name()} +
                                "' into '" + std::string{name} + "'"};
  }
  return *typed;
}

/// An ordered collection of metrics fed from one event stream — the unit
/// the engine keeps per (target, test). Suites merge member-wise and
/// require identical composition (same names, same order).
class MetricSuite {
 public:
  MetricSuite() = default;
  MetricSuite(MetricSuite&&) = default;
  MetricSuite& operator=(MetricSuite&&) = default;

  MetricSuite& add(std::unique_ptr<Metric> metric);
  std::size_t size() const { return metrics_.size(); }
  bool empty() const { return metrics_.empty(); }

  /// The member named `name`, or nullptr.
  const Metric* find(std::string_view name) const;
  /// Typed lookup; nullptr when absent or of a different concrete type.
  template <typename T>
  const T* get(std::string_view name) const {
    return dynamic_cast<const T*>(find(name));
  }

  // Event fan-in (every member sees every event).
  void observe(const core::SampleEvent& e);
  void observe_measurement(const core::MeasurementEvent& e);
  void observe_arrival(std::uint32_t send_index);
  /// Batched fan-in: one virtual call per member per run.
  void observe_arrivals(const std::uint32_t* send_indices, std::size_t count);
  void end_sequence();

  /// Hints the members' cache lines toward the core. The batched ingest
  /// path calls this while resolving a whole batch of runs, so the misses
  /// on many flows' metric state overlap instead of serializing.
  void prefetch() const {
    for (const auto& m : metrics_) __builtin_prefetch(m.get(), 1);
  }
  /// Second prefetch stage: members' tail state (see Metric). Called one
  /// pass after prefetch(), when the object headers have landed.
  void prefetch_state() const {
    for (const auto& m : metrics_) m->prefetch_state();
  }

  MetricSuite snapshot() const;
  /// Member-wise merge; throws std::invalid_argument when the suites'
  /// compositions differ.
  void merge(const MetricSuite& other);

  /// {"<metric name>": <metric.write_json()>, ...} in attachment order.
  void write_json(report::JsonWriter& w) const;
  /// write_json()'s rendering as a tree.
  report::Json to_json() const;

 private:
  std::vector<std::unique_ptr<Metric>> metrics_;
};

}  // namespace reorder::metrics
