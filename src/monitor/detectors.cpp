#include "monitor/detectors.hpp"

#include <algorithm>
#include <stdexcept>

#include "monitor/detector.hpp"

namespace reorder::monitor {

// ----------------------------------------------------------- suite layer

DetectorSuite& DetectorSuite::add(std::unique_ptr<Detector> detector) {
  if (detector == nullptr) {
    throw std::invalid_argument{"DetectorSuite::add: null detector"};
  }
  detectors_.push_back(std::move(detector));
  return *this;
}

const Detector* DetectorSuite::find(std::string_view name) const {
  for (const auto& d : detectors_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

bool DetectorSuite::observe_arrival(std::uint32_t send_index) {
  bool flagged = false;
  for (auto& d : detectors_) flagged = d->observe_arrival(send_index) || flagged;
  return flagged;
}

// Cache-line aligned, like every batch entry point of the ingest path, so
// its speed does not move with the size of unrelated code linked before it.
[[gnu::aligned(64)]] void DetectorSuite::observe_arrivals(const std::uint32_t* send_indices,
                                                        std::size_t count) {
  for (auto& d : detectors_) d->observe_arrivals(send_indices, count);
}

void DetectorSuite::end_flow() {
  for (auto& d : detectors_) d->end_flow();
}

DetectorSuite DetectorSuite::snapshot() const {
  DetectorSuite out;
  for (const auto& d : detectors_) out.detectors_.push_back(d->snapshot());
  return out;
}

void DetectorSuite::merge(const DetectorSuite& other) {
  if (detectors_.size() != other.detectors_.size()) {
    throw std::invalid_argument{"DetectorSuite::merge: suite compositions differ"};
  }
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    detectors_[i]->merge(*other.detectors_[i]);
  }
}

report::Json DetectorSuite::to_json() const {
  report::Json j = report::Json::object();
  for (const auto& d : detectors_) j.set(std::string{d->name()}, d->to_json());
  return j;
}

std::size_t DetectorSuite::flow_state_bytes() const {
  std::size_t total = 0;
  for (const auto& d : detectors_) total += d->flow_state_bytes();
  return total;
}

DetectorSuite default_suite(std::size_t budget_bytes) {
  // The rate counter's state is ~20 B regardless; the window sketch and
  // the n-reordering stack split what remains of the total budget.
  constexpr std::size_t kRateBudget = 20;
  const std::size_t rest = budget_bytes > kRateBudget ? budget_bytes - kRateBudget : 0;
  DetectorSuite suite;
  suite.add(std::make_unique<WindowSketchDetector>(rest / 2))
      .add(std::make_unique<RateEstimateDetector>(kRateBudget))
      .add(std::make_unique<BoundedNReorderingDetector>(rest - rest / 2));
  return suite;
}

// --------------------------------------------------- WindowSketchDetector

WindowSketchDetector::WindowSketchDetector(std::size_t budget_bytes)
    : budget_bytes_{budget_bytes},
      ring_(std::max<std::size_t>(1, budget_bytes / sizeof(std::uint32_t))) {}

void WindowSketchDetector::recompute_window_max() {
  window_max_ = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const std::size_t idx = (head_ + ring_.size() - count_ + i) % ring_.size();
    window_max_ = std::max(window_max_, ring_[idx]);
  }
}

bool WindowSketchDetector::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  ++packets_;
  const std::size_t k = ring_.size();
  // Fast path: nothing in the window sent later than this packet.
  const bool flagged = count_ > 0 && window_max_ > send_index;
  if (flagged) {
    // The extent is the distance back to the EARLIEST retained arrival
    // with a larger send index (a truncated RFC 4737 extent; exact when
    // the window covers the flow). Oldest-first scan, bounded by the
    // extent itself — cheap exactly when reordering is rare.
    for (std::size_t i = 0; i < count_; ++i) {
      const std::size_t idx = (head_ + k - count_ + i) % k;
      if (ring_[idx] > send_index) {
        const auto extent = static_cast<std::uint32_t>(count_ - i);
        ++flagged_;
        extent_sum_ += extent;
        max_extent_ = std::max(max_extent_, extent);
        break;
      }
    }
  }
  const bool full = count_ == k;
  const std::uint32_t evicted = full ? ring_[head_] : 0;
  ring_[head_] = send_index;
  head_ = (head_ + 1) % k;
  if (!full) ++count_;
  if (count_ == 1 || send_index >= window_max_) {
    window_max_ = send_index;
  } else if (full && evicted == window_max_) {
    recompute_window_max();
  }
  return flagged;
}

void WindowSketchDetector::end_flow() {
  if (!open_) return;
  ++flows_;
  head_ = 0;
  count_ = 0;
  window_max_ = 0;
  open_ = false;
}

std::unique_ptr<Detector> WindowSketchDetector::snapshot() const {
  return std::make_unique<WindowSketchDetector>(*this);
}

void WindowSketchDetector::merge(const Detector& other) {
  const auto& o = expect<WindowSketchDetector>(other, kName);
  if (open_ || o.open_) {
    throw std::invalid_argument{"WindowSketchDetector::merge: open flow (call end_flow)"};
  }
  if (ring_.size() != o.ring_.size()) {
    throw std::invalid_argument{"WindowSketchDetector::merge: window sizes differ"};
  }
  flows_ += o.flows_;
  packets_ += o.packets_;
  flagged_ += o.flagged_;
  extent_sum_ += o.extent_sum_;
  max_extent_ = std::max(max_extent_, o.max_extent_);
}

report::Json WindowSketchDetector::to_json() const {
  report::Json j = report::Json::object();
  j.set("budget_bytes", static_cast<std::uint64_t>(budget_bytes_));
  j.set("window", static_cast<std::uint64_t>(ring_.size()));
  j.set("flows", flows_);
  j.set("packets", packets_);
  j.set("flagged", flagged_);
  j.set("ratio", ratio());
  j.set("max_extent", static_cast<std::uint64_t>(max_extent_));
  j.set("mean_extent", mean_extent());
  return j;
}

std::size_t WindowSketchDetector::flow_state_bytes() const {
  return ring_.size() * sizeof(std::uint32_t);
}

// --------------------------------------------------- RateEstimateDetector

RateEstimateDetector::RateEstimateDetector(std::size_t budget_bytes)
    : budget_bytes_{budget_bytes},
      counter_bytes_{std::clamp<std::size_t>(
          budget_bytes > sizeof(std::uint32_t) ? (budget_bytes - sizeof(std::uint32_t)) / 2 : 1,
          1, 8)},
      cap_{counter_bytes_ >= 8 ? ~0ull : (1ull << (8 * counter_bytes_)) - 1} {}

bool RateEstimateDetector::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  ++packets_;
  const bool flagged = seen_ && send_index < flow_max_;
  if (!seen_ || send_index > flow_max_) flow_max_ = send_index;
  seen_ = true;
  if (usable_ == cap_) {
    // Saturation decay: halving both counters preserves the ratio while
    // keeping each inside its budgeted width.
    usable_ >>= 1;
    reordered_ >>= 1;
    ++decays_;
  }
  ++usable_;
  if (flagged) ++reordered_;
  return flagged;
}

void RateEstimateDetector::end_flow() {
  if (!open_) return;
  ++flows_;
  usable_sum_ += usable_;
  reordered_sum_ += reordered_;
  flow_max_ = 0;
  usable_ = 0;
  reordered_ = 0;
  seen_ = false;
  open_ = false;
}

std::unique_ptr<Detector> RateEstimateDetector::snapshot() const {
  return std::make_unique<RateEstimateDetector>(*this);
}

void RateEstimateDetector::merge(const Detector& other) {
  const auto& o = expect<RateEstimateDetector>(other, kName);
  if (open_ || o.open_) {
    throw std::invalid_argument{"RateEstimateDetector::merge: open flow (call end_flow)"};
  }
  if (counter_bytes_ != o.counter_bytes_) {
    throw std::invalid_argument{"RateEstimateDetector::merge: counter widths differ"};
  }
  flows_ += o.flows_;
  packets_ += o.packets_;
  reordered_sum_ += o.reordered_sum_;
  usable_sum_ += o.usable_sum_;
  decays_ += o.decays_;
}

report::Json RateEstimateDetector::to_json() const {
  report::Json j = report::Json::object();
  j.set("budget_bytes", static_cast<std::uint64_t>(budget_bytes_));
  j.set("counter_bits", static_cast<std::uint64_t>(8 * counter_bytes_));
  j.set("flows", flows_);
  j.set("packets", packets_);
  j.set("reordered", reordered_sum_);
  j.set("usable", usable_sum_);
  j.set("rate", rate());
  j.set("decays", decays_);
  return j;
}

std::size_t RateEstimateDetector::flow_state_bytes() const {
  return sizeof(std::uint32_t) + 2 * counter_bytes_;
}

// --------------------------------------------- BoundedNReorderingDetector

BoundedNReorderingDetector::BoundedNReorderingDetector(std::size_t budget_bytes)
    : budget_bytes_{budget_bytes},
      cap_{std::max<std::size_t>(1, budget_bytes / sizeof(Entry))},
      density_(cap_ + 1, 0) {
  stack_.reserve(std::min<std::size_t>(cap_, 1024));
}

bool BoundedNReorderingDetector::observe_arrival(std::uint32_t send_index) {
  open_ = true;
  ++packets_;
  const std::uint32_t pos = position_++;
  // In-order fast path: the previous arrival is always the top of the
  // stack, so a send index above it means boundary == top and n == 0 —
  // no search, no pops.
  if (stack_.size() > start_ && stack_.back().send_index < send_index) {
    push_bounded(Entry{pos, send_index});
    return false;
  }
  // Same search as the exact NReorderingMetric: the latest earlier arrival
  // with a smaller send index, over the retained monotonic stack.
  const auto bottom = stack_.begin() + static_cast<std::ptrdiff_t>(start_);
  const auto it = std::lower_bound(
      bottom, stack_.end(), send_index,
      [](const Entry& e, std::uint32_t value) { return e.send_index < value; });
  std::uint64_t n = 0;
  bool clamped = false;
  if (it != bottom) {
    n = pos - 1 - std::prev(it)->position;  // boundary retained: exact
  } else if (dropped_ == 0) {
    n = pos;  // no smaller-send arrival exists at all: exact
  } else {
    // The boundary fell off the bounded stack; the true n is provably
    // >= cap_ - 1, so the arrival lands in the saturation bucket.
    n = cap_;
    clamped = true;
  }
  if (n > 0) {
    const std::uint64_t recorded = std::min<std::uint64_t>(n, cap_);
    ++flagged_;
    sum_n_ += recorded;
    ++density_[recorded];
    if (clamped || n > cap_) ++saturated_;
  }
  while (stack_.size() > start_ && stack_.back().send_index >= send_index) stack_.pop_back();
  push_bounded(Entry{pos, send_index});
  return n > 0;
}

void BoundedNReorderingDetector::push_bounded(Entry entry) {
  stack_.push_back(entry);
  if (stack_.size() - start_ > cap_) {
    // Drop the logical bottom by index; compact physically only once per
    // cap_ drops so steady-state in-order ingest stays O(1) amortized.
    ++start_;
    ++dropped_;
    if (start_ >= cap_) {
      stack_.erase(stack_.begin(), stack_.begin() + static_cast<std::ptrdiff_t>(start_));
      start_ = 0;
    }
  }
}

void BoundedNReorderingDetector::end_flow() {
  if (!open_) return;
  ++flows_;
  stack_.clear();
  start_ = 0;
  position_ = 0;
  dropped_ = 0;
  open_ = false;
}

std::unique_ptr<Detector> BoundedNReorderingDetector::snapshot() const {
  return std::make_unique<BoundedNReorderingDetector>(*this);
}

void BoundedNReorderingDetector::merge(const Detector& other) {
  const auto& o = expect<BoundedNReorderingDetector>(other, kName);
  if (open_ || o.open_) {
    throw std::invalid_argument{"BoundedNReorderingDetector::merge: open flow (call end_flow)"};
  }
  if (cap_ != o.cap_) {
    throw std::invalid_argument{"BoundedNReorderingDetector::merge: stack caps differ"};
  }
  flows_ += o.flows_;
  packets_ += o.packets_;
  flagged_ += o.flagged_;
  sum_n_ += o.sum_n_;
  saturated_ += o.saturated_;
  for (std::size_t i = 0; i < density_.size(); ++i) density_[i] += o.density_[i];
}

std::uint64_t BoundedNReorderingDetector::count_for(std::uint64_t n) const {
  return n < density_.size() ? density_[n] : 0;
}

report::Json BoundedNReorderingDetector::to_json() const {
  report::Json j = report::Json::object();
  j.set("budget_bytes", static_cast<std::uint64_t>(budget_bytes_));
  j.set("stack_entries", static_cast<std::uint64_t>(cap_));
  j.set("flows", flows_);
  j.set("packets", packets_);
  j.set("reordered_fraction", reordered_fraction());
  j.set("mean_n", mean_n());
  j.set("saturated", saturated_);
  report::Json density = report::Json::array();
  for (std::size_t n = 1; n < density_.size(); ++n) {
    if (density_[n] == 0) continue;
    report::Json d = report::Json::object();
    d.set("n", static_cast<std::uint64_t>(n));
    d.set("count", density_[n]);
    density.push(std::move(d));
  }
  j.set("density", std::move(density));
  return j;
}

std::size_t BoundedNReorderingDetector::flow_state_bytes() const {
  return cap_ * sizeof(Entry);
}

}  // namespace reorder::monitor
