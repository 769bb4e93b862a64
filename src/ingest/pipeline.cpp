#include "ingest/pipeline.hpp"

#include <algorithm>
#include <utility>

#include "metrics/sequence_metrics.hpp"

namespace reorder::ingest {

metrics::MetricSuite SequenceEngine::default_suite() {
  metrics::MetricSuite suite;
  suite.add(std::make_unique<metrics::SequenceExtentMetric>());
  suite.add(std::make_unique<metrics::NReorderingMetric>());
  return suite;
}

SequenceEngine::SequenceEngine(SuiteFactory factory)
    : factory_{factory ? std::move(factory) : &SequenceEngine::default_suite} {}

void SequenceEngine::observe(std::uint64_t flow, std::uint32_t send_index) {
  auto it = flows_.find(flow);
  if (it == flows_.end()) it = flows_.emplace(flow, factory_()).first;
  ++arrivals_;
  it->second.observe_arrival(send_index);
}

// Cache-line aligned, like every batch entry point of the ingest path, so
// its speed does not move with the size of unrelated code linked before it.
[[gnu::aligned(64)]] void SequenceEngine::ingest_batch(const ArrivalBatch& batch) {
  // Two phases so the per-flow state misses overlap instead of
  // serializing: resolve every run's suite first — issuing prefetches
  // for the metric objects behind it — then observe. On wide flow sets
  // (thousands of flows, state long evicted) the observe loop then runs
  // against lines already in flight, which is most of the batched
  // speedup beyond the amortized lookup itself.
  scratch_.clear();
  batch.for_each_run([this](const ArrivalBatch::Run& run) {
    auto it = flows_.find(run.flow);
    if (it == flows_.end()) it = flows_.emplace(run.flow, factory_()).first;
    arrivals_ += run.count;
    it->second.prefetch();
    scratch_.push_back(ResolvedRun{&it->second, run.send, run.count});
  });
  // Second prefetch stage: the suites' object headers are in flight from
  // phase one, so their tail-state addresses can now be hinted too.
  for (const ResolvedRun& run : scratch_) run.suite->prefetch_state();
  for (const ResolvedRun& run : scratch_) {
    run.suite->observe_arrivals(run.send, run.count);
  }
}

void SequenceEngine::flush() {
  for (auto& [flow, suite] : flows_) suite.end_sequence();
}

std::vector<std::uint64_t> SequenceEngine::flow_ids() const {
  std::vector<std::uint64_t> ids;
  ids.reserve(flows_.size());
  for (const auto& [flow, suite] : flows_) ids.push_back(flow);
  std::sort(ids.begin(), ids.end());
  return ids;
}

const metrics::MetricSuite* SequenceEngine::flow_suite(std::uint64_t flow) const {
  const auto it = flows_.find(flow);
  return it == flows_.end() ? nullptr : &it->second;
}

report::Json SequenceEngine::to_json() const { return to_json({this, 1}, factory_); }

report::Json SequenceEngine::to_json(std::span<const SequenceEngine> engines,
                                     const SuiteFactory& factory) {
  std::uint64_t arrivals = 0;
  std::vector<std::pair<std::uint64_t, const metrics::MetricSuite*>> flows;
  for (const SequenceEngine& engine : engines) {
    arrivals += engine.arrivals_;
    for (const auto& [flow, suite] : engine.flows_) flows.emplace_back(flow, &suite);
  }
  std::sort(flows.begin(), flows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  metrics::MetricSuite merged = factory();
  for (const auto& [flow, suite] : flows) {
    metrics::MetricSuite copy = suite->snapshot();
    copy.end_sequence();
    merged.merge(copy);
  }
  report::Json j = report::Json::object();
  j.set("arrivals", arrivals);
  j.set("flows", static_cast<std::uint64_t>(flows.size()));
  j.set("metrics", merged.to_json());
  return j;
}

std::vector<Arrival> from_monitor(const std::vector<monitor::MonitorArrival>& arrivals) {
  std::vector<Arrival> out;
  out.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    out.push_back(Arrival{arrivals[i].flow, arrivals[i].send_index,
                          static_cast<std::int64_t>(i)});
  }
  return out;
}

}  // namespace reorder::ingest
