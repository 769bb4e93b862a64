#include "monitor/engine.hpp"

#include "core/verdict.hpp"
#include "util/shard_seeder.hpp"

namespace reorder::monitor {

MonitorEngine::MonitorEngine(MonitorConfig config)
    : config_{std::move(config)},
      factory_{config_.factory ? config_.factory
                               : [budget = config_.budget_bytes] { return default_suite(budget); }},
      table_{config_.table} {
  suites_.reserve(table_.slots());
  for (std::size_t i = 0; i < table_.slots(); ++i) suites_.push_back(factory_());
  closed_ = factory_();
  flow_state_bytes_ = closed_.flow_state_bytes();
}

bool MonitorEngine::ingest(std::uint64_t flow, std::uint32_t send_index) {
  const FlowTable::Ref ref = table_.lookup(flow);
  // An eviction closes the outgoing flow's bounded state into this slot's
  // totals before the new key takes the detectors over.
  if (ref.evicted) suites_[ref.slot].end_flow();
  ++arrivals_;
  return suites_[ref.slot].observe_arrival(send_index);
}

// Cache-line aligned, like every batch entry point of the ingest path, so
// its speed does not move with the size of unrelated code linked before it.
[[gnu::aligned(64)]] void MonitorEngine::ingest_run(std::uint64_t flow,
                                                  const std::uint32_t* send_indices,
                                                  std::size_t count) {
  if (count == 0) return;
  const FlowTable::Ref ref = table_.lookup_run(flow, count);
  if (ref.evicted) suites_[ref.slot].end_flow();
  arrivals_ += count;
  suites_[ref.slot].observe_arrivals(send_indices, count);
}

// Cache-line aligned, like every batch entry point of the ingest path, so
// its speed does not move with the size of unrelated code linked before it.
[[gnu::aligned(64)]] void MonitorEngine::ingest_batch(const ingest::ArrivalBatch& batch) {
  batch.for_each_run([this](const ingest::ArrivalBatch::Run& run) {
    ingest_run(run.flow, run.send, run.count);
  });
}

void MonitorEngine::ingest_sequence(std::uint64_t flow, const std::uint32_t* arrival,
                                    std::size_t count) {
  ingest_run(flow, arrival, count);
  end_flow(flow);
}

void MonitorEngine::ingest_sequence(std::uint64_t flow,
                                    const std::vector<std::uint32_t>& arrival) {
  ingest_sequence(flow, arrival.data(), arrival.size());
}

void MonitorEngine::end_flow(std::uint64_t flow) {
  const std::ptrdiff_t slot = table_.find(flow);
  if (slot >= 0) suites_[static_cast<std::size_t>(slot)].end_flow();
}

void MonitorEngine::flush() {
  for (std::size_t i = 0; i < suites_.size(); ++i) {
    if (table_.slot_live(i)) suites_[i].end_flow();
  }
}

void MonitorEngine::observe_measurement(const core::MeasurementEvent& e) {
  ++measurements_;
  if (!e.result.admissible) return;
  ++admissible_;
  const std::uint64_t flow = flow_key(e.target, e.test);
  // The MetricEngine pair replay: each usable forward verdict is one
  // degenerate length-2 arrival sequence, closed per sample (the
  // mergeability boundary).
  for (const core::SampleResult& sample : e.result.samples) {
    if (sample.forward == core::Ordering::kInOrder) {
      ingest(flow, 0);
      ingest(flow, 1);
      end_flow(flow);
    } else if (sample.forward == core::Ordering::kReordered) {
      ingest(flow, 1);
      ingest(flow, 0);
      end_flow(flow);
    }
  }
}

std::uint64_t MonitorEngine::flow_key(std::string_view target, std::string_view test) {
  // FNV-1a over "target/test", finalized through splitmix64 so structured
  // names land on decorrelated table sets.
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 1099511628211ull;
    }
  };
  fold(target);
  h ^= static_cast<std::uint8_t>('/');
  h *= 1099511628211ull;
  fold(test);
  return util::splitmix64(h);
}

DetectorSuite MonitorEngine::snapshot() const {
  DetectorSuite out = closed_.snapshot();
  for (std::size_t i = 0; i < suites_.size(); ++i) {
    if (!table_.slot_live(i)) continue;
    DetectorSuite copy = suites_[i].snapshot();
    copy.end_flow();
    out.merge(copy);
  }
  return out;
}

void MonitorEngine::merge(const MonitorEngine& other) {
  closed_.merge(other.snapshot());
  table_.add_counters(other.table().counters());
  arrivals_ += other.arrivals_;
  measurements_ += other.measurements_;
  admissible_ += other.admissible_;
  folded_live_ += other.live_flows();
}

report::Json MonitorEngine::to_json() const {
  report::Json j = report::Json::object();
  j.set("arrivals", arrivals_);
  j.set("flows", table_.counters().insertions);
  j.set("live", live_flows());
  j.set("budget_bytes", static_cast<std::uint64_t>(config_.budget_bytes));
  j.set("flow_state_bytes", static_cast<std::uint64_t>(flow_state_bytes_));
  j.set("measurements", measurements_);
  j.set("admissible", admissible_);
  j.set("table", table_.to_json());
  j.set("detectors", snapshot().to_json());
  return j;
}

void MonitorEngine::emit_jsonl(report::JsonlWriter& out) const {
  report::Json j = report::Json::object();
  j.set("type", "monitor");
  const report::Json body = to_json();
  for (const auto& [key, value] : body.members()) j.set(key, value);
  out.write(j);
}

}  // namespace reorder::monitor
