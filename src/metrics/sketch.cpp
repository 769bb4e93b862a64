#include "metrics/sketch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace reorder::metrics {

std::size_t TailSketch::bucket_index(std::uint64_t value) {
  // Values below kSubBuckets get one bucket each (exact); above that,
  // each power-of-two range contributes kSubBuckets linear sub-buckets.
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  const int magnitude = std::bit_width(value) - 1;  // >= 5
  const int sub_shift = magnitude - 5;              // kSubBuckets == 2^5
  const std::uint64_t sub = (value >> sub_shift) - kSubBuckets;  // [0, kSubBuckets)
  return kSubBuckets + static_cast<std::size_t>(magnitude - 5) * kSubBuckets +
         static_cast<std::size_t>(sub);
}

std::uint64_t TailSketch::bucket_floor(std::size_t index) {
  if (index < kSubBuckets) return index;
  const std::size_t band = (index - kSubBuckets) / kSubBuckets;
  const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
  return (kSubBuckets + sub) << band;
}

void TailSketch::add(std::uint64_t value) {
  const std::size_t i = bucket_index(value);
  if (i >= buckets_.size()) buckets_.resize(i + 1, 0);
  ++buckets_[i];
  if (count_ == 0 || value < min_) min_ = value;
  max_ = std::max(max_, value);
  sum_ += value;
  ++count_;
}

double TailSketch::mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t TailSketch::rank(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const auto r = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  return std::clamp<std::uint64_t>(r, 1, count_);
}

std::uint64_t TailSketch::quantile(double q) const {
  if (count_ == 0) return 0;
  // Nearest-rank: the smallest bucket whose cumulative count reaches
  // ceil(q * count), with rank clamped to [1, count].
  const std::uint64_t target = rank(q);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return bucket_floor(i);
  }
  return bucket_floor(buckets_.empty() ? 0 : buckets_.size() - 1);
}

std::array<std::uint64_t, 3> TailSketch::tail_quantiles() const {
  std::array<std::uint64_t, 3> out{};
  if (count_ == 0) return out;
  // The ranks ascend with q, so one walk stops where each of quantile()'s
  // own scans from bucket 0 would, and falls back as it does.
  const std::array<std::uint64_t, 3> ranks{rank(0.50), rank(0.90), rank(0.99)};
  std::size_t next = 0;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size() && next < ranks.size(); ++i) {
    seen += buckets_[i];
    for (; next < ranks.size() && seen >= ranks[next]; ++next) out[next] = bucket_floor(i);
  }
  for (; next < ranks.size(); ++next) {
    out[next] = bucket_floor(buckets_.empty() ? 0 : buckets_.size() - 1);
  }
  return out;
}

void TailSketch::merge(const TailSketch& other) {
  if (other.buckets_.size() > buckets_.size()) buckets_.resize(other.buckets_.size(), 0);
  for (std::size_t i = 0; i < other.buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

void TailSketch::write_json(report::JsonWriter& w) const {
  const auto [p50, p90, p99] = tail_quantiles();
  w.begin_object()
      .key("count").number(count_)
      .key("min").number(min())
      .key("max").number(max_)
      .key("mean").number(mean())
      .key("p50").number(p50)
      .key("p90").number(p90)
      .key("p99").number(p99)
      .key("sum").u64(sum_)
      .key("buckets").begin_array();
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    w.begin_array().number(i).u64(buckets_[i]).end_array();
  }
  w.end_array().end_object();
}

report::Json TailSketch::to_json() const {
  return report::Json::rendered([&](report::JsonWriter& w) { write_json(w); });
}

void TailSketch::from_json(const report::Json& j) {
  TailSketch restored;
  restored.count_ = j.at("count").as_u64();
  restored.sum_ = j.at("sum").as_u64();
  restored.max_ = j.at("max").as_u64();
  restored.min_ = restored.count_ == 0 ? 0 : j.at("min").as_u64();
  // No value maps past the largest value's bucket, so an index beyond it
  // is corrupt input, not a bucket to allocate.
  const std::uint64_t max_index = bucket_index(std::numeric_limits<std::uint64_t>::max());
  for (const auto& pair : j.at("buckets").items()) {
    const std::uint64_t raw_index = pair.at(0).as_u64();
    if (raw_index > max_index) {
      throw std::runtime_error{"TailSketch::from_json: bucket index " + std::to_string(raw_index) +
                               " is out of range"};
    }
    const auto index = static_cast<std::size_t>(raw_index);
    if (index >= restored.buckets_.size()) restored.buckets_.resize(index + 1, 0);
    restored.buckets_[index] = pair.at(1).as_u64();
  }
  *this = std::move(restored);
}

}  // namespace reorder::metrics
