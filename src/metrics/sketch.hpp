// A deterministic, exactly-mergeable quantile sketch for non-negative
// tail distributions (reordering extents, late times).
//
// Randomized sketches (t-digest, KLL) merge approximately and depend on
// merge order — useless here, where the engine's contract is that merging
// per-shard snapshots is bit-identical to the single-pass batch result.
// This sketch instead uses HdrHistogram-style log-linear buckets: values
// land in a bucket determined only by their magnitude, so a merge is a
// bucket-wise sum and every quantile query depends only on the multiset
// of observations, never on how the stream was partitioned.
//
// Resolution: each power-of-two range is split into kSubBuckets linear
// sub-buckets, giving a fixed <= 1/kSubBuckets relative error on reported
// quantiles (values below kSubBuckets are exact).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "report/json.hpp"

namespace reorder::metrics {

class TailSketch {
 public:
  static constexpr std::uint32_t kSubBuckets = 32;

  void add(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  double mean() const;

  /// Nearest-rank quantile (q clamped to [0,1]); 0 with no observations.
  /// Returns the representative (lower edge) of the containing bucket.
  std::uint64_t quantile(double q) const;

  /// Bucket-wise sum — exact, order-independent.
  void merge(const TailSketch& other);

  /// {"count":..,"min":..,"max":..,"mean":..,"p50":..,"p90":..,"p99":..,
  ///  "sum":..,"buckets":[[index,count],..]} (all zero/empty if empty).
  /// The sparse bucket array + sum make the rendering lossless: from_json
  /// of it rebuilds a bit-identical sketch (quantiles are derived).
  void write_json(report::JsonWriter& w) const;
  /// write_json()'s rendering as a tree.
  report::Json to_json() const;

  /// Restores the sketch from a write_json() rendering, replacing any
  /// current state. Throws on schema mismatch, and std::runtime_error on
  /// a bucket index past the largest value's bucket.
  void from_json(const report::Json& j);

 private:
  static std::size_t bucket_index(std::uint64_t value);
  static std::uint64_t bucket_floor(std::size_t index);
  /// quantile()'s nearest rank of q, in [1, count()]; needs count() > 0.
  std::uint64_t rank(double q) const;
  /// quantile() at p50, p90 and p99 in one cumulative pass.
  std::array<std::uint64_t, 3> tail_quantiles() const;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_{0};
  std::uint64_t sum_{0};
  std::uint64_t max_{0};
  std::uint64_t min_{0};
};

}  // namespace reorder::metrics
