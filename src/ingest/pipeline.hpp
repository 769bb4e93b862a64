// The engine-side pieces of the line-rate ingest path that
// ParallelIngestPipeline (ingest/parallel_pipeline.hpp) builds on:
// SequenceEngine, the exact per-flow metrics::MetricSuite state each
// consumer shard drains its ArrivalBatches into (batched
// observe_arrivals() spans, bit-exact with the scalar observe());
// Backpressure, the producer's policy when a shard's ring fills; and
// from_monitor(), which renders a monitor-level arrival stream as
// ingest arrivals.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ingest/arrival_batch.hpp"
#include "metrics/metric.hpp"
#include "monitor/differential.hpp"
#include "report/json.hpp"

namespace reorder::ingest {

/// What the producer does when the ring is full.
enum class Backpressure {
  kSpin,  ///< lossless: sleep until the consumer has drained half the ring
  kDrop,  ///< shed the batch, count it, keep going
};

/// The exact per-flow sequence analytics on the consumer side of the
/// ring: one metrics::MetricSuite per flow id, fed through the batched
/// observe_arrivals() span path (scalar observe() is the bit-exactness
/// comparator the tests drive). Snapshot/merge discipline matches the
/// other engines: to_json() folds flush-closed copies of every flow's
/// suite in sorted-key order, so the JSON is byte-stable regardless of
/// hash-map iteration order.
class SequenceEngine {
 public:
  using SuiteFactory = std::function<metrics::MetricSuite()>;

  /// The line-rate default: sequence_extent + n_reordering (the
  /// O(log n)-per-arrival pair; the density metrics are survey-side).
  static metrics::MetricSuite default_suite();

  explicit SequenceEngine(SuiteFactory factory = {});

  /// Scalar path: one arrival on `flow` (one map lookup per arrival).
  void observe(std::uint64_t flow, std::uint32_t send_index);
  /// Batched path: splits a batch into maximal same-flow runs and feeds
  /// each to its flow's suite as one observe_arrivals() span (one map
  /// lookup and one virtual fan-in per member per run).
  void ingest_batch(const ArrivalBatch& batch);
  /// Closes every flow's open sequence.
  void flush();

  std::uint64_t arrivals() const { return arrivals_; }
  std::size_t flow_count() const { return flows_.size(); }

  /// Every live flow id, ascending.
  std::vector<std::uint64_t> flow_ids() const;
  /// The flow's live suite, or nullptr; no insertion.
  const metrics::MetricSuite* flow_suite(std::uint64_t flow) const;

  /// {"arrivals":..,"flows":..,"metrics":{<merged suite>}}
  report::Json to_json() const;
  /// to_json() of engines holding disjoint flow sets, as if one engine
  /// had seen every flow. The one sequence fold: a fresh `factory` suite
  /// merges an end_sequence()'d copy of each flow's suite in ascending
  /// global flow-id order. The fold order, not just the per-flow states,
  /// fixes the bytes, so any split of the flows over shards yields the
  /// same JSON as one engine.
  static report::Json to_json(std::span<const SequenceEngine> engines,
                              const SuiteFactory& factory);

 private:
  struct ResolvedRun {
    metrics::MetricSuite* suite;
    const std::uint32_t* send;
    std::size_t count;
  };

  SuiteFactory factory_;
  std::unordered_map<std::uint64_t, metrics::MetricSuite> flows_;
  std::vector<ResolvedRun> scratch_;  ///< ingest_batch working set, reused
  std::uint64_t arrivals_{0};
};

/// ingest-side view of a monitor-level arrival stream: timestamps are
/// synthesized as the stream index (the models are virtual-time).
std::vector<Arrival> from_monitor(const std::vector<monitor::MonitorArrival>& arrivals);

}  // namespace reorder::ingest
