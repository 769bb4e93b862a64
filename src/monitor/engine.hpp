// The always-on monitor front end: a fixed-budget FlowTable keyed by
// 64-bit flow ids, one bounded DetectorSuite per slot, and the same
// snapshot / merge / JSONL discipline as metrics::MetricEngine.
//
// Two ingest surfaces share the per-slot detectors:
//
//   * raw arrivals — ingest(flow, send_index) / ingest_sequence(), the
//     shape trace::data_arrival_sequence() produces from a packet capture
//     (send indices in arrival order, one flow per (src,dst) port pair);
//   * the ResultSink event stream — MonitorSink/observe_measurement feed
//     each admissible measurement's usable forward verdicts as degenerate
//     length-2 flows keyed by hash(target, test), exactly the pair stream
//     MetricEngine replays into its sequence metrics.
//
// Eviction is where the bounded table meets the bounded detectors: the
// outgoing flow's open state is closed into the SLOT's suite totals (an
// integer fold, no allocation) and the slot re-opens for the new key.
// Because every total is an order-independent integer sum, the engine's
// snapshot — closed totals folded over all slots plus previously merged
// shards — is a pure function of the per-flow event sets, and merging
// per-shard engines is bit-identical to one engine having seen every
// flow (provided no shard evicted, i.e. the table is provisioned for its
// shard's live flows; eviction under churn is measured, not merged).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/result_sink.hpp"
#include "ingest/arrival_batch.hpp"
#include "monitor/detector.hpp"
#include "monitor/flow_table.hpp"
#include "report/jsonl.hpp"

namespace reorder::monitor {

struct MonitorConfig {
  FlowTableConfig table{};
  /// Total per-flow detector budget handed to default_suite().
  std::size_t budget_bytes{256};
  /// Replaces default_suite(budget_bytes) when set.
  DetectorFactory factory{};
};

class MonitorEngine {
 public:
  explicit MonitorEngine(MonitorConfig config = {});

  MonitorEngine(MonitorEngine&&) = default;
  MonitorEngine& operator=(MonitorEngine&&) = default;

  // ------------------------------------------------------- raw arrivals
  /// One arrival: packet with per-flow send index `send_index` observed
  /// on flow `flow`. Returns true when any detector flagged it.
  bool ingest(std::uint64_t flow, std::uint32_t send_index);
  /// A run of `count` consecutive arrivals of one flow — the line-rate
  /// batched path: one flow-table lookup (tick-advanced as if per
  /// arrival, see FlowTable::lookup_run) and one virtual fan-in per
  /// detector. Bit-exact with `count` scalar ingest() calls in every
  /// observable (snapshots, JSONL, table counters); per-arrival flag
  /// verdicts are not reported on this path.
  void ingest_run(std::uint64_t flow, const std::uint32_t* send_indices, std::size_t count);
  /// Splits an ingest::ArrivalBatch into maximal same-flow runs and
  /// feeds each through ingest_run() — what each consumer shard of
  /// ingest::ParallelIngestPipeline drains its sub-batches into.
  void ingest_batch(const ingest::ArrivalBatch& batch);
  /// A whole arrival sequence (trace::data_arrival_sequence shape); the
  /// flow is closed afterwards. The pointer+length form is the copy-free
  /// view the batch path and trace replay feed; the vector overload is a
  /// thin forwarder.
  void ingest_sequence(std::uint64_t flow, const std::uint32_t* arrival, std::size_t count);
  void ingest_sequence(std::uint64_t flow, const std::vector<std::uint32_t>& arrival);
  /// Closes `flow`'s open state if it is resident (the slot stays bound
  /// to the key; subsequent arrivals start a fresh sequence).
  void end_flow(std::uint64_t flow);
  /// Closes every live flow's open state.
  void flush();

  // --------------------------------------------------- ResultSink front
  /// Folds one completed measurement: admissible measurements replay
  /// their usable forward verdicts as degenerate pair flows keyed by
  /// flow_key(target, test) — the MetricEngine gating, monitor-side.
  void observe_measurement(const core::MeasurementEvent& e);

  /// Deterministic flow id for a (target, test) stream.
  static std::uint64_t flow_key(std::string_view target, std::string_view test);

  // -------------------------------------------------------------- shape
  std::uint64_t arrivals() const { return arrivals_; }
  std::uint64_t measurements() const { return measurements_; }
  std::uint64_t admissible() const { return admissible_; }
  /// Live flows here plus in engines folded via merge().
  std::uint64_t live_flows() const { return table_.live_flows() + folded_live_; }
  const FlowTable& table() const { return table_; }
  std::size_t budget_bytes() const { return config_.budget_bytes; }
  /// Per-slot detector footprint actually provisioned.
  std::size_t flow_state_bytes() const { return flow_state_bytes_; }

  // ------------------------------------------------------ snapshot/merge
  /// The closed fold of everything observed: previously merged shards
  /// plus an end_flow()'d copy of every slot suite. Pure in the event
  /// sets (slot order cannot leak: totals are integer sums).
  DetectorSuite snapshot() const;
  /// Folds another engine's snapshot and counters into this one. Suite
  /// compositions (and budgets) must match; throws otherwise.
  void merge(const MonitorEngine& other);

  /// {"arrivals":..,"flows":..,"live":..,"budget_bytes":..,
  ///  "flow_state_bytes":..,"measurements":..,"admissible":..,
  ///  "table":{...},"detectors":{...}}
  report::Json to_json() const;
  /// One {"type":"monitor",...} JSONL record of to_json().
  void emit_jsonl(report::JsonlWriter& out) const;

 private:
  MonitorConfig config_;
  DetectorFactory factory_;
  FlowTable table_;
  std::vector<DetectorSuite> suites_;  ///< one per table slot
  DetectorSuite closed_;               ///< accumulators folded in via merge()
  std::size_t flow_state_bytes_{0};
  std::uint64_t arrivals_{0};
  std::uint64_t measurements_{0};
  std::uint64_t admissible_{0};
  std::uint64_t folded_live_{0};
};

/// The ResultSink adapter: attach to run_scenario / SurveyEngine replay
/// (or feed via publish_result) to stream measurements into a monitor.
class MonitorSink final : public core::ResultSink {
 public:
  explicit MonitorSink(MonitorEngine& engine) : engine_{engine} {}

  void on_measurement(const core::MeasurementEvent& e) override {
    engine_.observe_measurement(e);
  }

 private:
  MonitorEngine& engine_;
};

}  // namespace reorder::monitor
