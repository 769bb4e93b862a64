// Sequence-level metrics: one-pass accumulators over arrival sequences
// (streams of send indices in arrival order — the RFC 4737 model; each
// measurement, trace capture, or TCP transfer is one sequence).
//
// Where core::analyze_sequence is the O(n^2) batch oracle, these are the
// streaming production implementations: O(log n) per arrival, and exactly
// mergeable at sequence boundaries (the engine closes the sequence at
// every measurement event, so shard partitions never split one).
//
// The open state is run-length coded, so an in-order stretch costs O(1)
// however long it is. SequenceExtentMetric keeps one run per stretch of
// consecutive prefix maxima, its ArrivalCounter one interval per stretch
// of consecutive send indices, plus a Fenwick tree of 8 B per send index
// once the first reordered arrival needs one. NReorderingMetric keeps one
// run per stretch of consecutive monotonic-stack entries. A fully in-order
// sequence holds one run per structure, a lossy one a run per gap. The
// new metrics the literature asks for:
//
//   * SequenceExtentMetric — RFC 4737 reordered ratio + reordering
//     extents (max / mean / tail sketch) + inversions;
//   * NReorderingMetric — RFC 5236 n-reordering density: a reordered
//     packet's n is the number of later-sent packets that arrived ahead
//     of it;
//   * ReorderDensityMetric — Piratla's RD: normalized histogram of
//     per-packet displacement (arrival position - send index), the view
//     "Detecting TCP Packet Reordering in the Data Plane" builds on;
//   * BufferDensityMetric — Piratla's RBD: normalized histogram of the
//     hypothetical resequencing-buffer occupancy after each arrival, the
//     receiver-cost view time-sensitive networking cares about
//     (Mohammadpour & Le Boudec).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "metrics/metric.hpp"
#include "metrics/sketch.hpp"

namespace reorder::metrics {

/// Shared helper: a Fenwick tree over send indices counting arrivals,
/// grown on demand. count_above(s) is the number of recorded arrivals
/// with send index > s — both RFC 5236's n and the inversion count.
class ArrivalCounter {
 public:
  /// O(1): buffers the index; the tree is only materialized when a query
  /// actually needs it. Counts depend on the multiset of recorded
  /// indices, not insertion order, so deferral is invisible.
  void record(std::uint32_t send_index) { record_run(send_index, 1); }
  /// O(1) bulk record of the `count` consecutive indices first,
  /// first + 1, ... (the caller keeps the last one within 32 bits).
  /// Equivalent to `count` record() calls.
  void record_run(std::uint32_t first, std::uint64_t count) {
    const auto last = static_cast<std::uint32_t>(first + (count - 1));
    // In 64 bits, so an interval ending at 2^32 - 1 never absorbs 0.
    if (!pending_.empty() && std::uint64_t{pending_.back().last} + 1 == first) {
      pending_.back().last = last;
    } else {
      pending_.push_back(Interval{first, last});
    }
    max_seen_ = std::max(max_seen_, last);
    total_ += count;
  }
  std::uint64_t count_above(std::uint32_t send_index) {
    // In-order fast path: nothing recorded exceeds the running maximum,
    // so querying at or above it is 0 without touching the tree — the
    // common case of every in-order arrival. A fully in-order sequence
    // never builds the tree at all.
    if (total_ == 0 || send_index >= max_seen_) return 0;
    return count_above_slow(send_index);
  }
  std::uint64_t total() const { return total_; }
  /// Empties the counter and releases its storage.
  void clear();
  /// Bytes of capacity held by the tree and the backlog.
  std::size_t state_bytes() const {
    return tree_.capacity() * sizeof(std::uint64_t) + pending_.capacity() * sizeof(Interval);
  }
  /// Prefetch hint for the append tail (see Metric::prefetch_state).
  void prefetch_tail() const {
    if (!pending_.empty()) __builtin_prefetch(pending_.data() + pending_.size() - 1, 1);
  }

 private:
  /// The recorded send indices first..last, each once.
  struct Interval {
    std::uint32_t first;
    std::uint32_t last;
  };

  void insert(std::uint32_t send_index);
  std::uint64_t count_above_slow(std::uint32_t send_index);

  std::vector<std::uint64_t> tree_;  // 1-based Fenwick
  std::vector<Interval> pending_;    // recorded, not yet in the tree
  std::uint64_t total_{0};
  std::uint32_t max_seen_{0};
};

/// A run of sequence entries that step by one in both arrival position
/// and send index: the entries (position + t, send_index + t) for
/// t = 0 .. last - send_index. SequenceExtentMetric's prefix maxima and
/// NReorderingMetric's monotonic stack rise strictly in both, so each
/// stores a stretch of consecutive entries as one run.
struct SequenceRun {
  std::uint64_t position;    ///< arrival position of the run's first entry
  std::uint32_t send_index;  ///< send index of the run's first entry
  std::uint32_t last;        ///< send index of the run's last entry

  std::uint64_t last_position() const { return position + (last - send_index); }
};

/// RFC 4737 §4/§5: reordered ratio, reordering extents, inversions —
/// streamed. A packet is reordered iff an earlier arrival carried a
/// larger send index; its extent is the distance back (in arrivals) to
/// the earliest such arrival, found by binary search over the running
/// record (prefix-maxima) stack.
class SequenceExtentMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "sequence_extent";

  std::string_view name() const override { return kName; }
  void observe_arrival(std::uint32_t send_index) override;
  /// The batched fast path: a stretch of consecutive send indices above
  /// the running maximum extends one run in O(1); every other arrival
  /// runs the scalar step. Bit-exact with `count` observe_arrival() calls
  /// — the ingest equivalence tests enforce it over every scenario.
  void observe_arrivals(const std::uint32_t* send_indices, std::size_t count) override;
  void prefetch_state() const override;
  void end_sequence() override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t reordered() const { return reordered_; }
  double ratio() const {
    return packets_ == 0 ? 0.0
                         : static_cast<double>(reordered_) / static_cast<double>(packets_);
  }
  std::uint32_t max_extent() const { return max_extent_; }
  double mean_extent() const {
    return reordered_ == 0 ? 0.0
                           : static_cast<double>(extent_sum_) / static_cast<double>(reordered_);
  }
  std::uint64_t inversions() const { return inversions_; }
  std::uint64_t sequences() const { return sequences_; }
  const TailSketch& extent_tail() const { return extent_tail_; }

  /// Bytes of capacity held by the open-sequence state, the counter's
  /// Fenwick tree included.
  std::size_t state_bytes() const;

 private:
  // Closed totals (what merge combines).
  std::uint64_t packets_{0};
  std::uint64_t reordered_{0};
  std::uint64_t extent_sum_{0};
  std::uint32_t max_extent_{0};
  std::uint64_t inversions_{0};
  std::uint64_t sequences_{0};
  TailSketch extent_tail_;

  // Open-sequence state (must be closed before merge/snapshot compare).
  std::vector<SequenceRun> records_;  ///< strictly increasing prefix maxima, as runs
  ArrivalCounter counter_;
  std::uint64_t position_{0};
  bool open_{false};
};

/// RFC 5236 §4: the n-reordering density. For each arrival, n is the
/// number of packets sent after it that arrived before it; the metric
/// reports, for each n >= 1, how many packets were exactly n-reordered.
class NReorderingMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "n_reordering";

  std::string_view name() const override { return kName; }
  void observe_arrival(std::uint32_t send_index) override;
  /// Batched fast path; see SequenceExtentMetric::observe_arrivals.
  void observe_arrivals(const std::uint32_t* send_indices, std::size_t count) override;
  void prefetch_state() const override;
  void end_sequence() override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  std::uint64_t packets() const { return packets_; }
  /// Packets that were exactly n-reordered (0 for unseen n).
  std::uint64_t count_for(std::uint64_t n) const;
  /// Fraction of packets with n-reordering >= 1.
  double reordered_fraction() const;

  /// Bytes of capacity held by the open-sequence state.
  std::size_t state_bytes() const { return stack_.capacity() * sizeof(SequenceRun); }

 private:
  std::uint64_t packets_{0};
  std::map<std::uint64_t, std::uint64_t> density_;  ///< n -> packet count
  /// Monotonic stack, as runs: increasing position AND send index; the
  /// latest earlier arrival with a smaller send index is found by binary
  /// search. Its top entry is always the previous arrival.
  std::vector<SequenceRun> stack_;
  std::uint64_t position_{0};
  bool open_{false};
};

/// Piratla's reorder density (RD): histogram of per-packet displacement
/// D = arrival position - send index, clamped to [-threshold, threshold].
class ReorderDensityMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "reorder_density";

  explicit ReorderDensityMetric(std::int64_t threshold = 16) : threshold_{threshold} {}

  std::string_view name() const override { return kName; }
  void observe_arrival(std::uint32_t send_index) override;
  void end_sequence() override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t count_for(std::int64_t displacement) const;

 private:
  std::int64_t threshold_;
  std::uint64_t packets_{0};
  std::map<std::int64_t, std::uint64_t> density_;  ///< displacement -> count
  std::uint64_t position_{0};
  bool open_{false};
};

/// Piratla's reorder buffer-occupancy density (RBD): feed arrivals into a
/// hypothetical resequencing buffer that releases packets in send order;
/// histogram of the buffer occupancy observed after each arrival.
class BufferDensityMetric final : public Metric {
 public:
  static constexpr std::string_view kName = "buffer_density";

  std::string_view name() const override { return kName; }
  void observe_arrival(std::uint32_t send_index) override;
  void end_sequence() override;
  std::unique_ptr<Metric> snapshot() const override;
  void merge(const Metric& other) override;
  report::Json to_json() const override;
  void from_json(const report::Json& j) override;

  std::uint64_t packets() const { return packets_; }
  std::uint64_t count_for(std::uint64_t occupancy) const;
  std::uint64_t max_occupancy() const { return max_occupancy_; }

 private:
  std::uint64_t packets_{0};
  std::map<std::uint64_t, std::uint64_t> density_;  ///< occupancy -> count
  std::uint64_t max_occupancy_{0};

  // Open-sequence resequencing state.
  std::uint32_t next_expected_{0};
  std::vector<std::uint32_t> held_;  ///< min-heap of buffered send indices
  bool open_{false};
};

/// Feeds one whole arrival sequence through a suite (or single metric)
/// and closes it — the batch entry point benches and trace analysis use.
/// The pointer+length forms are the copy-free view the ingest path and
/// trace replay feed; the vector forms forward to them.
void observe_sequence(MetricSuite& suite, const std::uint32_t* arrival, std::size_t count);
void observe_sequence(Metric& metric, const std::uint32_t* arrival, std::size_t count);
void observe_sequence(MetricSuite& suite, const std::vector<std::uint32_t>& arrival);
void observe_sequence(Metric& metric, const std::vector<std::uint32_t>& arrival);

}  // namespace reorder::metrics
