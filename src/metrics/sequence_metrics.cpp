#include "metrics/sequence_metrics.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace reorder::metrics {

namespace {

/// Appends the entries (position + t, first + t), t < count, to `runs`,
/// extending the last run when they continue it in both position and send
/// index (in 64 bits, so a run ending at 2^32 - 1 never absorbs 0).
void append_run(std::vector<SequenceRun>& runs, std::uint64_t position, std::uint32_t first,
                std::uint64_t count) {
  const auto last = static_cast<std::uint32_t>(first + (count - 1));
  if (!runs.empty() && std::uint64_t{runs.back().last} + 1 == first &&
      runs.back().last_position() + 1 == position) {
    runs.back().last = last;
  } else {
    runs.push_back(SequenceRun{position, first, last});
  }
}

}  // namespace

// -------------------------------------------------------- ArrivalCounter

void ArrivalCounter::insert(std::uint32_t send_index) {
  const std::size_t needed = static_cast<std::size_t>(send_index) + 2;  // 1-based
  if (needed > tree_.size()) {
    // Double the Fenwick and rebuild from the recorded frequencies (the
    // tree itself is the only storage: rebuild by re-walking is O(M), and
    // doubling keeps the amortized cost per record O(log M)).
    std::size_t capacity = std::max<std::size_t>(64, tree_.size());
    while (capacity < needed) capacity *= 2;
    std::vector<std::uint64_t> freq(capacity, 0);
    // Recover frequencies: freq[i] = prefix(i) - prefix(i-1).
    std::uint64_t prev = 0;
    for (std::size_t i = 1; i < tree_.size(); ++i) {
      std::uint64_t prefix = 0;
      for (std::size_t k = i; k > 0; k -= k & (~k + 1)) prefix += tree_[k];
      freq[i] = prefix - prev;
      prev = prefix;
    }
    tree_.assign(capacity, 0);
    for (std::size_t i = 1; i < freq.size(); ++i) {
      if (freq[i] == 0) continue;
      for (std::size_t k = i; k < tree_.size(); k += k & (~k + 1)) tree_[k] += freq[i];
    }
  }
  for (std::size_t k = static_cast<std::size_t>(send_index) + 1; k < tree_.size();
       k += k & (~k + 1)) {
    ++tree_[k];
  }
}

std::uint64_t ArrivalCounter::count_above_slow(std::uint32_t send_index) {
  // Materialize the deferred records first (first reordered arrival of a
  // sequence pays the whole backlog once; after that it's incremental).
  for (const Interval& r : pending_) {
    for (std::uint64_t s = r.first; s <= r.last; ++s) insert(static_cast<std::uint32_t>(s));
  }
  pending_.clear();
  // total - (arrivals with send index <= send_index).
  std::uint64_t at_or_below = 0;
  std::size_t k = std::min(static_cast<std::size_t>(send_index) + 1,
                           tree_.empty() ? 0 : tree_.size() - 1);
  for (; k > 0; k -= k & (~k + 1)) at_or_below += tree_[k];
  return total_ - at_or_below;
}

void ArrivalCounter::clear() {
  // Release the storage, not just the contents: a closed sequence must not
  // keep the largest tree this counter ever held.
  tree_ = std::vector<std::uint64_t>{};
  pending_ = std::vector<Interval>{};
  total_ = 0;
  max_seen_ = 0;
}

// -------------------------------------------------- SequenceExtentMetric

void SequenceExtentMetric::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  ++packets_;
  inversions_ += counter_.count_above(send_index);
  if (!records_.empty() && records_.back().last > send_index) {
    // Reordered (RFC 4737 type-P-reordered): a larger send index already
    // arrived. The extent is the distance back to the earliest such
    // arrival, which is always a prefix-maximum record: the first run
    // ending above send_index holds it, at t = send_index + 1 - its
    // first send index, clamped at 0.
    const auto it = std::upper_bound(
        records_.begin(), records_.end(), send_index,
        [](std::uint32_t value, const SequenceRun& r) { return r.last > value; });
    const std::uint64_t t =
        send_index >= it->send_index ? std::uint64_t{send_index} + 1 - it->send_index : 0;
    const auto extent = static_cast<std::uint32_t>(position_ - (it->position + t));
    ++reordered_;
    extent_sum_ += extent;
    max_extent_ = std::max(max_extent_, extent);
    extent_tail_.add(extent);
  } else if (records_.empty() || send_index > records_.back().last) {
    append_run(records_, position_, send_index, 1);
  }
  counter_.record(send_index);
  ++position_;
}

void SequenceExtentMetric::observe_arrivals(const std::uint32_t* send_indices,
                                            std::size_t count) {
  // The scalar recurrence, with its in-order case bulked. An arrival
  // whose send index exceeds the running prefix maximum (the last run's
  // last record, which equals the counter's max) is exactly: not
  // reordered, zero inversions added, one record appended, one counter
  // record — so a stretch of consecutive indices above the maximum is one
  // run appended to each. Anything else falls back to the scalar step for
  // that arrival. Bit-exact by case analysis; the ingest equivalence
  // tests hold it to that over every scenario.
  std::size_t i = 0;
  while (i < count) {
    if (!records_.empty() && send_indices[i] <= records_.back().last) {
      observe_arrival(send_indices[i]);
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < count && std::uint64_t{send_indices[j - 1]} + 1 == send_indices[j]) ++j;
    const std::uint64_t len = j - i;
    open_ = true;
    append_run(records_, position_, send_indices[i], len);
    counter_.record_run(send_indices[i], len);
    packets_ += len;
    position_ += len;
    i = j;
  }
}

void SequenceExtentMetric::prefetch_state() const {
  if (!records_.empty()) __builtin_prefetch(records_.data() + records_.size() - 1, 1);
  counter_.prefetch_tail();
}

std::size_t SequenceExtentMetric::state_bytes() const {
  return records_.capacity() * sizeof(SequenceRun) + counter_.state_bytes();
}

void SequenceExtentMetric::end_sequence() {
  if (!open_) return;
  ++sequences_;
  records_ = std::vector<SequenceRun>{};
  counter_.clear();
  position_ = 0;
  open_ = false;
}

std::unique_ptr<Metric> SequenceExtentMetric::snapshot() const {
  return std::make_unique<SequenceExtentMetric>(*this);
}

void SequenceExtentMetric::merge(const Metric& other) {
  const auto& o = expect<SequenceExtentMetric>(other, kName);
  if (open_ || o.open_) {
    throw std::invalid_argument{"SequenceExtentMetric::merge: open sequence (call end_sequence)"};
  }
  packets_ += o.packets_;
  reordered_ += o.reordered_;
  extent_sum_ += o.extent_sum_;
  max_extent_ = std::max(max_extent_, o.max_extent_);
  inversions_ += o.inversions_;
  sequences_ += o.sequences_;
  extent_tail_.merge(o.extent_tail_);
}

report::Json SequenceExtentMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("sequences", sequences_);
  j.set("packets", packets_);
  j.set("reordered", reordered_);
  j.set("ratio", ratio());
  j.set("max_extent", static_cast<std::uint64_t>(max_extent_));
  j.set("mean_extent", mean_extent());
  j.set("extent_sum", report::Json::u64(extent_sum_));
  j.set("inversions", report::Json::u64(inversions_));
  j.set("extent_tail", extent_tail_.to_json());
  return j;
}

void SequenceExtentMetric::from_json(const report::Json& j) {
  SequenceExtentMetric restored;
  restored.sequences_ = j.at("sequences").as_u64();
  restored.packets_ = j.at("packets").as_u64();
  restored.reordered_ = j.at("reordered").as_u64();
  restored.extent_sum_ = j.at("extent_sum").as_u64();
  restored.max_extent_ = static_cast<std::uint32_t>(j.at("max_extent").as_u64());
  restored.inversions_ = j.at("inversions").as_u64();
  restored.extent_tail_.from_json(j.at("extent_tail"));
  *this = std::move(restored);
}

// ----------------------------------------------------- NReorderingMetric

void NReorderingMetric::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  ++packets_;
  if (stack_.empty() || stack_.back().last < send_index) {
    // In-order fast path: the stack top is always the previous arrival,
    // so when it was sent earlier the binary search would land past the
    // end, n would be 0, and the pop would pop nothing — skip straight to
    // the push. (An empty stack is position 0, where n is 0 too.)
    append_run(stack_, position_, send_index, 1);
    ++position_;
    return;
  }
  // RFC 5236: the packet is n-reordered when the n arrivals immediately
  // before it were all sent after it. n = current position - 1 - (latest
  // earlier position whose send index is smaller). The monotonic stack
  // holds (position, send index) with strictly increasing values, so that
  // latest smaller-valued position is found by binary search: the first
  // run ending at or above send_index, whose first `below` entries are
  // below it. The top run ends at or above it, so that run exists.
  const auto it = std::lower_bound(
      stack_.begin(), stack_.end(), send_index,
      [](const SequenceRun& e, std::uint32_t value) { return e.last < value; });
  const std::uint64_t below = send_index > it->send_index ? send_index - it->send_index : 0;
  std::int64_t boundary = -1;
  if (below > 0) {
    boundary = static_cast<std::int64_t>(it->position + below - 1);
  } else if (it != stack_.begin()) {
    boundary = static_cast<std::int64_t>(std::prev(it)->last_position());
  }
  const auto n = static_cast<std::uint64_t>(static_cast<std::int64_t>(position_) - 1 - boundary);
  if (n > 0) ++density_[n];
  // Pop every entry at or above send_index: the run keeps its `below`
  // entries and the runs after it go.
  if (below > 0) {
    it->last = send_index - 1;
    stack_.erase(std::next(it), stack_.end());
  } else {
    stack_.erase(it, stack_.end());
  }
  append_run(stack_, position_, send_index, 1);
  ++position_;
}

void NReorderingMetric::observe_arrivals(const std::uint32_t* send_indices, std::size_t count) {
  // Scalar recurrence with the in-order case bulked: an arrival above the
  // stack top (always the previous arrival) has n == 0 and pops nothing,
  // so a stretch of consecutive indices above it is one run pushed.
  std::size_t i = 0;
  while (i < count) {
    if (!stack_.empty() && send_indices[i] <= stack_.back().last) {
      observe_arrival(send_indices[i]);
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < count && std::uint64_t{send_indices[j - 1]} + 1 == send_indices[j]) ++j;
    const std::uint64_t len = j - i;
    open_ = true;
    append_run(stack_, position_, send_indices[i], len);
    packets_ += len;
    position_ += len;
    i = j;
  }
}

void NReorderingMetric::prefetch_state() const {
  if (!stack_.empty()) __builtin_prefetch(stack_.data() + stack_.size() - 1, 1);
}

void NReorderingMetric::end_sequence() {
  if (!open_) return;
  stack_ = std::vector<SequenceRun>{};
  position_ = 0;
  open_ = false;
}

std::uint64_t NReorderingMetric::count_for(std::uint64_t n) const {
  const auto it = density_.find(n);
  return it == density_.end() ? 0 : it->second;
}

double NReorderingMetric::reordered_fraction() const {
  if (packets_ == 0) return 0.0;
  std::uint64_t reordered = 0;
  for (const auto& [n, count] : density_) reordered += count;
  return static_cast<double>(reordered) / static_cast<double>(packets_);
}

std::unique_ptr<Metric> NReorderingMetric::snapshot() const {
  return std::make_unique<NReorderingMetric>(*this);
}

void NReorderingMetric::merge(const Metric& other) {
  const auto& o = expect<NReorderingMetric>(other, kName);
  if (open_ || o.open_) {
    throw std::invalid_argument{"NReorderingMetric::merge: open sequence (call end_sequence)"};
  }
  packets_ += o.packets_;
  for (const auto& [n, count] : o.density_) density_[n] += count;
}

report::Json NReorderingMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("packets", packets_);
  j.set("reordered_fraction", reordered_fraction());
  report::Json density = report::Json::array();
  for (const auto& [n, count] : density_) {
    report::Json d = report::Json::object();
    d.set("n", n);
    d.set("count", count);
    density.push(std::move(d));
  }
  j.set("density", std::move(density));
  return j;
}

void NReorderingMetric::from_json(const report::Json& j) {
  NReorderingMetric restored;
  restored.packets_ = j.at("packets").as_u64();
  for (const auto& d : j.at("density").items()) {
    restored.density_[d.at("n").as_u64()] = d.at("count").as_u64();
  }
  *this = std::move(restored);
}

// -------------------------------------------------- ReorderDensityMetric

void ReorderDensityMetric::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  const std::int64_t displacement =
      static_cast<std::int64_t>(position_) - static_cast<std::int64_t>(send_index);
  ++density_[std::clamp(displacement, -threshold_, threshold_)];
  ++packets_;
  ++position_;
}

void ReorderDensityMetric::end_sequence() {
  if (!open_) return;
  position_ = 0;
  open_ = false;
}

std::uint64_t ReorderDensityMetric::count_for(std::int64_t displacement) const {
  const auto it = density_.find(displacement);
  return it == density_.end() ? 0 : it->second;
}

std::unique_ptr<Metric> ReorderDensityMetric::snapshot() const {
  return std::make_unique<ReorderDensityMetric>(*this);
}

void ReorderDensityMetric::merge(const Metric& other) {
  const auto& o = expect<ReorderDensityMetric>(other, kName);
  if (o.threshold_ != threshold_) {
    throw std::invalid_argument{"ReorderDensityMetric::merge: thresholds differ"};
  }
  if (open_ || o.open_) {
    throw std::invalid_argument{"ReorderDensityMetric::merge: open sequence (call end_sequence)"};
  }
  packets_ += o.packets_;
  for (const auto& [d, count] : o.density_) density_[d] += count;
}

report::Json ReorderDensityMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("threshold", threshold_);
  j.set("packets", packets_);
  report::Json density = report::Json::array();
  for (const auto& [d, count] : density_) {
    report::Json entry = report::Json::object();
    entry.set("displacement", d);
    entry.set("count", count);
    if (packets_ > 0) {
      entry.set("density", static_cast<double>(count) / static_cast<double>(packets_));
    }
    density.push(std::move(entry));
  }
  j.set("density", std::move(density));
  return j;
}

void ReorderDensityMetric::from_json(const report::Json& j) {
  ReorderDensityMetric restored{j.at("threshold").as_int()};
  restored.packets_ = j.at("packets").as_u64();
  for (const auto& d : j.at("density").items()) {
    restored.density_[d.at("displacement").as_int()] = d.at("count").as_u64();
  }
  *this = std::move(restored);
}

// --------------------------------------------------- BufferDensityMetric

void BufferDensityMetric::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  if (send_index == next_expected_) {
    ++next_expected_;
    while (!held_.empty() && held_.front() == next_expected_) {
      std::pop_heap(held_.begin(), held_.end(), std::greater<>{});
      held_.pop_back();
      ++next_expected_;
    }
  } else if (send_index > next_expected_) {
    held_.push_back(send_index);
    std::push_heap(held_.begin(), held_.end(), std::greater<>{});
  }
  // Duplicates / already-released indices leave the buffer untouched but
  // still contribute an occupancy observation (an arrival happened).
  const auto occupancy = static_cast<std::uint64_t>(held_.size());
  ++density_[occupancy];
  max_occupancy_ = std::max(max_occupancy_, occupancy);
  ++packets_;
}

void BufferDensityMetric::end_sequence() {
  if (!open_) return;
  held_.clear();
  next_expected_ = 0;
  open_ = false;
}

std::uint64_t BufferDensityMetric::count_for(std::uint64_t occupancy) const {
  const auto it = density_.find(occupancy);
  return it == density_.end() ? 0 : it->second;
}

std::unique_ptr<Metric> BufferDensityMetric::snapshot() const {
  return std::make_unique<BufferDensityMetric>(*this);
}

void BufferDensityMetric::merge(const Metric& other) {
  const auto& o = expect<BufferDensityMetric>(other, kName);
  if (open_ || o.open_) {
    throw std::invalid_argument{"BufferDensityMetric::merge: open sequence (call end_sequence)"};
  }
  packets_ += o.packets_;
  max_occupancy_ = std::max(max_occupancy_, o.max_occupancy_);
  for (const auto& [occ, count] : o.density_) density_[occ] += count;
}

report::Json BufferDensityMetric::to_json() const {
  report::Json j = report::Json::object();
  j.set("packets", packets_);
  j.set("max_occupancy", max_occupancy_);
  report::Json density = report::Json::array();
  for (const auto& [occ, count] : density_) {
    report::Json entry = report::Json::object();
    entry.set("occupancy", occ);
    entry.set("count", count);
    if (packets_ > 0) {
      entry.set("density", static_cast<double>(count) / static_cast<double>(packets_));
    }
    density.push(std::move(entry));
  }
  j.set("density", std::move(density));
  return j;
}

void BufferDensityMetric::from_json(const report::Json& j) {
  BufferDensityMetric restored;
  restored.packets_ = j.at("packets").as_u64();
  restored.max_occupancy_ = j.at("max_occupancy").as_u64();
  for (const auto& d : j.at("density").items()) {
    restored.density_[d.at("occupancy").as_u64()] = d.at("count").as_u64();
  }
  *this = std::move(restored);
}

// -------------------------------------------------------- batch feeding

void observe_sequence(MetricSuite& suite, const std::uint32_t* arrival, std::size_t count) {
  suite.observe_arrivals(arrival, count);
  suite.end_sequence();
}

void observe_sequence(Metric& metric, const std::uint32_t* arrival, std::size_t count) {
  metric.observe_arrivals(arrival, count);
  metric.end_sequence();
}

void observe_sequence(MetricSuite& suite, const std::vector<std::uint32_t>& arrival) {
  observe_sequence(suite, arrival.data(), arrival.size());
}

void observe_sequence(Metric& metric, const std::vector<std::uint32_t>& arrival) {
  observe_sequence(metric, arrival.data(), arrival.size());
}

}  // namespace reorder::metrics
