// The line-rate ingest pipeline: NIC-RSS-style flow-hash sharding of an
// arrival stream across N consumer cores (N >= 1).
//
// The calling thread is the producer. It pulls arrivals from a Source and
// packs each straight into the sub-batch builder of shard
// shard_of(flow) = splitmix64(flow) % shards, shipping a sub-batch when
// it fills (recycled ArrivalBatchBuilders, so steady state stays
// allocation-free). Each shard has its own SpscRing, drained by its own
// consumer thread into a private SequenceEngine and/or
// monitor::MonitorEngine shard. At one shard every flow hashes to shard 0
// and the pipeline is one producer and one consumer thread.
//
// Neither side spins while it waits. A consumer whose ring is empty sleeps
// in SpscRing::pop() until the producer has queued a burst (an eighth of
// the ring) or closed the ring at the end of the stream; a producer whose
// ring is full (Backpressure::kSpin) sleeps in push_spin() until that
// consumer has drained half of it. So a shard may hold up to a burst of
// sub-batches unfolded while its consumer sleeps. Nothing reads shard
// state during run(): run() closes every ring and returns only after every
// consumer has drained its ring and been joined, so no output can see a
// batch that was still waiting for its burst.
//
// The determinism argument, in full: a flow is pinned to exactly one
// shard for the pipeline's lifetime, the producer packs arrivals in
// source order, and each shard's ring is FIFO — so every shard observes
// its flows' arrivals in exactly the global source order restricted to
// those flows. Per-flow arrival order is therefore preserved, and since
// the sequence metrics and monitor detectors keep only per-flow state
// (plus order-independent integer totals), the cross-shard folds —
// sequences_json() re-interleaving all shards' flows into
// ascending-flow-id order, merged_monitor() summing detector totals and
// table counters — are BIT-IDENTICAL for every shard count and to the
// scalar recurrence. (For the monitor at more than one shard this holds
// whenever no shard evicts, i.e. the table is provisioned for its live
// flows — the same boundary MonitorEngine::merge documents.)
// tests/parallel_ingest_test.cpp enforces the identity differentially
// over every scenario for shards in {1,2,4,8}, misaligned batch
// capacities and both backpressure policies.
//
// Observability: per-shard ring/engine counters plus the packing stats —
// sub-batch fill histogram (capacity eighths) and the flow-imbalance
// ratio (max shard arrivals / mean) — all land in the {"type":"ingest"}
// JSONL record. Conservation holds across all shards:
// consumed + dropped == produced.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "ingest/arrival_batch.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/spsc_ring.hpp"
#include "monitor/engine.hpp"
#include "report/jsonl.hpp"
#include "util/shard_seeder.hpp"
#include "util/time.hpp"

namespace reorder::ingest {

/// Which consumer shard owns `flow`. splitmix64 avalanches the id first so
/// structured flow spaces (sequential ids, (target,test) hashes) spread
/// evenly; the modulo then pins the flow to one queue — the software
/// restatement of NIC receive-side scaling's hash-to-queue indirection.
inline std::size_t shard_of(std::uint64_t flow, std::size_t shards) {
  return static_cast<std::size_t>(util::splitmix64(flow) % shards);
}

struct ParallelPipelineConfig {
  /// Consumer shard count (>= 1; clamped).
  std::size_t shards{1};
  /// Arrivals per sub-batch (the amortization grain) and per Source call.
  std::size_t batch_capacity{1024};
  /// Per-shard ring capacity in batches; rounded up to a power of two.
  std::size_t ring_batches{64};
  Backpressure backpressure{Backpressure::kSpin};
  /// Saturation knob: every consumer busy-waits this long per batch,
  /// forcing the producer into its backpressure policy.
  util::Duration consumer_stall{util::Duration::nanos(0)};
  /// Exact per-flow sequence metrics on every shard (suite_factory, or
  /// SequenceEngine::default_suite when empty; the factory must be safe to
  /// invoke concurrently from the consumer threads).
  bool sequences{true};
  SequenceEngine::SuiteFactory suite_factory{};
  /// Bounded always-on monitor shard on every consumer.
  bool monitor{false};
  monitor::MonitorConfig monitor_config{};
};

/// One shard's transfer/consumption accounting.
struct ShardStats {
  std::uint64_t arrivals_dispatched{0};  ///< routed into this shard's ring
  std::uint64_t arrivals_consumed{0};
  std::uint64_t arrivals_dropped{0};  ///< shed whole sub-batches (kDrop)
  std::uint64_t batches_dispatched{0};
  std::uint64_t batches_consumed{0};
  std::uint64_t batches_dropped{0};
  SpscRingCounters ring{};  ///< this shard's data ring, post-quiescence
};

/// The producer's per-shard packing accounting.
struct DispatcherStats {
  std::uint64_t sub_batches{0};  ///< sub-batches shipped to shard rings
  /// Shipped sub-batch fill in capacity eighths: bucket 7 is full batches;
  /// a producer that ships mostly-empty sub-batches (over-sharded, or
  /// flow-starved) shows up on the left of this histogram.
  std::array<std::uint64_t, 8> fill_hist{};
  /// max shard arrivals / (total / shards); 1.0 is a perfect split, 0 when
  /// nothing was dispatched. The RSS hash-quality number.
  double imbalance_ratio{0.0};
};

/// Whole-run accounting. Conservation across all shards:
/// arrivals_consumed + arrivals_dropped == arrivals_produced.
struct ParallelPipelineStats {
  std::uint64_t arrivals_produced{0};
  std::uint64_t arrivals_consumed{0};
  std::uint64_t arrivals_dropped{0};
  std::uint64_t batches_consumed{0};
  std::uint64_t batches_dropped{0};
  std::uint64_t spin_waits{0};       ///< producer failed push rounds, all shard rings
  std::uint64_t producer_sleeps{0};  ///< producer waits on a full ring, all shard rings
  std::uint64_t consumer_sleeps{0};  ///< consumer waits on an empty ring, all shards
  std::int64_t wall_ns{0};           ///< run() entry -> all consumers joined
  DispatcherStats dispatcher{};
  std::vector<ShardStats> shards{};
};

class ParallelIngestPipeline {
 public:
  /// Bulk arrival source, called on the producer (calling) thread: fill up
  /// to `max` arrivals into `out`, return how many; 0 ends the stream.
  using Source = std::function<std::size_t(Arrival* out, std::size_t max)>;

  explicit ParallelIngestPipeline(ParallelPipelineConfig config);

  /// Runs the producer on the calling thread and one consumer thread per
  /// shard until `source` is exhausted, every ring is closed and drained
  /// and every consumer is joined; returns the run's stats. The shard
  /// engines accumulate across run() calls (replay-style drivers call run
  /// repeatedly, then flush()). An exception from `source` stops the run:
  /// the consumers drain what was shipped and are joined, then the
  /// exception reaches the caller. A consumer-thread exception (say, from
  /// the suite factory) stops that shard's fold, leaving it partial, and
  /// reaches the caller the same way.
  const ParallelPipelineStats& run(Source source);
  const ParallelPipelineStats& run(const Arrival* arrivals, std::size_t count);
  const ParallelPipelineStats& run(const std::vector<Arrival>& arrivals);

  std::size_t shards() const { return config_.shards; }
  const ParallelPipelineStats& stats() const { return stats_; }

  SequenceEngine& shard_sequences(std::size_t shard) { return sequence_shards_[shard]; }
  const SequenceEngine& shard_sequences(std::size_t shard) const {
    return sequence_shards_[shard];
  }

  /// Closes every shard engine's open flows (the scalar engines' flush()).
  void flush();

  /// {"arrivals":..,"flows":..,"metrics":{..}} folded across every shard
  /// by SequenceEngine::to_json(engines, factory) — byte-identical to one
  /// SequenceEngine that saw the whole stream.
  report::Json sequences_json() const;
  /// All monitor shards folded into one engine via MonitorEngine::merge —
  /// byte-identical to the single engine when no shard evicted.
  monitor::MonitorEngine merged_monitor() const;

  /// The {"type":"ingest"} body: run totals, packing stats (fill
  /// histogram, imbalance ratio) and the per-shard counter array.
  report::Json to_json() const;
  void emit_jsonl(report::JsonlWriter& out) const;

 private:
  ParallelPipelineConfig config_;
  SequenceEngine::SuiteFactory suite_factory_;
  std::vector<SequenceEngine> sequence_shards_;
  std::vector<monitor::MonitorEngine> monitor_shards_;
  ParallelPipelineStats stats_;
};

}  // namespace reorder::ingest
