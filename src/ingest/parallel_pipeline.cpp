#include "ingest/parallel_pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>
#include <utility>

namespace reorder::ingest {

ParallelIngestPipeline::ParallelIngestPipeline(ParallelPipelineConfig config)
    : config_{std::move(config)} {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.batch_capacity == 0) config_.batch_capacity = 1;
  if (config_.ring_batches == 0) config_.ring_batches = 1;
  suite_factory_ = config_.suite_factory ? config_.suite_factory : &SequenceEngine::default_suite;
  if (config_.sequences) {
    sequence_shards_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) sequence_shards_.emplace_back(suite_factory_);
  }
  if (config_.monitor) {
    monitor_shards_.reserve(config_.shards);
    for (std::size_t s = 0; s < config_.shards; ++s) {
      monitor_shards_.emplace_back(config_.monitor_config);
    }
  }
}

const ParallelPipelineStats& ParallelIngestPipeline::run(Source source) {
  const std::size_t n_shards = config_.shards;
  stats_ = ParallelPipelineStats{};
  stats_.shards.resize(n_shards);

  // One data ring per shard, plus the return direction: consumers recycle
  // emptied sub-batches back to the producer's builders, so steady state
  // allocates nothing. Each ring keeps its SPSC discipline — the
  // producer thread is the only producer of every data ring and the only
  // consumer of every free ring.
  std::vector<std::unique_ptr<SpscRing<ArrivalBatch>>> rings;
  std::vector<std::unique_ptr<SpscRing<ArrivalBatch>>> free_rings;
  rings.reserve(n_shards);
  free_rings.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    rings.push_back(std::make_unique<SpscRing<ArrivalBatch>>(config_.ring_batches));
    free_rings.push_back(std::make_unique<SpscRing<ArrivalBatch>>(config_.ring_batches));
  }
  std::atomic<bool> done{false};

  struct ConsumerCounters {
    std::uint64_t arrivals{0};
    std::uint64_t batches{0};
  };
  std::vector<ConsumerCounters> consumed(n_shards);
  std::vector<std::exception_ptr> consumer_failures(n_shards);  // read after the join

  const auto started = std::chrono::steady_clock::now();

  const auto consumer = [&](std::size_t s) {
    SequenceEngine* seq = config_.sequences ? &sequence_shards_[s] : nullptr;
    monitor::MonitorEngine* mon = config_.monitor ? &monitor_shards_[s] : nullptr;
    const std::int64_t stall_ns = config_.consumer_stall.ns();
    std::exception_ptr& failure = consumer_failures[s];
    ArrivalBatch batch;
    const auto consume = [&] {
      // An exception escaping this thread would end the process. A failed
      // shard stops folding but keeps draining its ring, so a spinning
      // producer cannot hang; run() rethrows after the join.
      if (!failure) {
        try {
          if (seq != nullptr) seq->ingest_batch(batch);
          if (mon != nullptr) mon->ingest_batch(batch);
        } catch (...) {
          failure = std::current_exception();
        }
      }
      ++consumed[s].batches;
      consumed[s].arrivals += batch.size();
      if (stall_ns > 0) {
        const auto until = std::chrono::steady_clock::now() + std::chrono::nanoseconds{stall_ns};
        while (std::chrono::steady_clock::now() < until) {
        }
      }
      batch.clear();
      ArrivalBatch recycled = std::move(batch);
      free_rings[s]->push_or_drop(recycled);  // full free ring: deallocate
      batch = std::move(recycled);            // no-op if the push took it
    };
    for (;;) {
      if (rings[s]->try_pop(batch)) {
        consume();
        continue;
      }
      if (done.load(std::memory_order_acquire)) {
        // Producer finished: one final drain settles the race between its
        // last publish and our failed pop.
        while (rings[s]->try_pop(batch)) consume();
        break;
      }
      std::this_thread::yield();
    }
  };

  // The producer, on the calling thread: pack each source arrival
  // straight into its shard's sub-batch builder and ship sub-batches as
  // they fill. Each builder sees its flows' arrivals in source order.
  const auto produce = [&] {
    std::vector<ArrivalBatchBuilder> builders;
    builders.reserve(n_shards);
    for (std::size_t s = 0; s < n_shards; ++s) builders.emplace_back(config_.batch_capacity);
    std::vector<Arrival> scratch(config_.batch_capacity);

    const auto ship = [&](std::size_t s) {
      ArrivalBatch recycled;
      while (free_rings[s]->try_pop(recycled)) builders[s].recycle(std::move(recycled));
      ArrivalBatch sub = builders[s].take();
      if (sub.empty()) return;
      const std::size_t fill = sub.size();
      ++stats_.dispatcher.sub_batches;
      const std::size_t bucket =
          std::min<std::size_t>(7, (fill - 1) * 8 / config_.batch_capacity);
      ++stats_.dispatcher.fill_hist[bucket];
      ++stats_.shards[s].batches_dispatched;
      stats_.shards[s].arrivals_dispatched += fill;
      if (config_.backpressure == Backpressure::kSpin) {
        rings[s]->push_spin(std::move(sub));
      } else if (!rings[s]->push_or_drop(sub)) {
        ++stats_.shards[s].batches_dropped;
        stats_.shards[s].arrivals_dropped += fill;
        builders[s].recycle(std::move(sub));
      }
    };

    for (;;) {
      const std::size_t n = source(scratch.data(), scratch.size());
      if (n == 0) break;
      stats_.arrivals_produced += n;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = shard_of(scratch[i].flow, n_shards);
        if (builders[s].push(scratch[i])) ship(s);
      }
    }
    // Flush every shard's partial sub-batch, then let the consumers drain.
    for (std::size_t s = 0; s < n_shards; ++s) ship(s);
  };

  // Unwinding past a joinable std::thread ends the process, so a throwing
  // source (or a failed thread start) first stops and joins the consumers
  // and only then reaches the caller.
  std::vector<std::thread> consumers;
  consumers.reserve(n_shards);
  std::exception_ptr failure;
  try {
    for (std::size_t s = 0; s < n_shards; ++s) consumers.emplace_back(consumer, s);
    produce();
  } catch (...) {
    failure = std::current_exception();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : consumers) t.join();
  if (failure) std::rethrow_exception(failure);
  for (const std::exception_ptr& consumer_failure : consumer_failures) {
    if (consumer_failure) std::rethrow_exception(consumer_failure);
  }

  // ------------------------------------------------------------- fold stats
  std::uint64_t max_dispatched = 0;
  for (std::size_t s = 0; s < n_shards; ++s) {
    ShardStats& shard = stats_.shards[s];
    shard.arrivals_consumed = consumed[s].arrivals;
    shard.batches_consumed = consumed[s].batches;
    shard.ring = rings[s]->counters();
    stats_.arrivals_consumed += shard.arrivals_consumed;
    stats_.arrivals_dropped += shard.arrivals_dropped;
    stats_.batches_consumed += shard.batches_consumed;
    stats_.batches_dropped += shard.batches_dropped;
    stats_.spin_waits += shard.ring.spin_waits;
    max_dispatched = std::max(max_dispatched, shard.arrivals_dispatched);
  }
  const std::uint64_t dispatched_total = stats_.arrivals_consumed + stats_.arrivals_dropped;
  if (dispatched_total > 0) {
    stats_.dispatcher.imbalance_ratio =
        static_cast<double>(max_dispatched) * static_cast<double>(n_shards) /
        static_cast<double>(dispatched_total);
  }
  stats_.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  return stats_;
}

const ParallelPipelineStats& ParallelIngestPipeline::run(const Arrival* arrivals,
                                                         std::size_t count) {
  std::size_t next = 0;
  return run([arrivals, count, next](Arrival* out, std::size_t max) mutable {
    const std::size_t n = std::min(max, count - next);
    std::copy(arrivals + next, arrivals + next + n, out);
    next += n;
    return n;
  });
}

const ParallelPipelineStats& ParallelIngestPipeline::run(const std::vector<Arrival>& arrivals) {
  return run(arrivals.data(), arrivals.size());
}

void ParallelIngestPipeline::flush() {
  for (SequenceEngine& seq : sequence_shards_) seq.flush();
  for (monitor::MonitorEngine& mon : monitor_shards_) mon.flush();
}

report::Json ParallelIngestPipeline::sequences_json() const {
  return SequenceEngine::to_json(sequence_shards_, suite_factory_);
}

monitor::MonitorEngine ParallelIngestPipeline::merged_monitor() const {
  monitor::MonitorEngine out{config_.monitor_config};
  for (const monitor::MonitorEngine& mon : monitor_shards_) out.merge(mon);
  return out;
}

report::Json ParallelIngestPipeline::to_json() const {
  report::Json j = report::Json::object();
  j.set("shards", static_cast<std::uint64_t>(config_.shards));
  j.set("backpressure",
        std::string{config_.backpressure == Backpressure::kSpin ? "spin" : "drop"});
  j.set("batch_capacity", static_cast<std::uint64_t>(config_.batch_capacity));
  j.set("ring_batches", static_cast<std::uint64_t>(config_.ring_batches));
  j.set("arrivals_produced", stats_.arrivals_produced);
  j.set("arrivals_consumed", stats_.arrivals_consumed);
  j.set("arrivals_dropped", stats_.arrivals_dropped);
  j.set("batches_consumed", stats_.batches_consumed);
  j.set("batches_dropped", stats_.batches_dropped);
  j.set("spin_waits", stats_.spin_waits);
  j.set("wall_ns", static_cast<std::uint64_t>(stats_.wall_ns));
  const double secs = static_cast<double>(stats_.wall_ns) / 1e9;
  j.set("arrivals_per_sec",
        secs > 0.0 ? static_cast<double>(stats_.arrivals_consumed) / secs : 0.0);

  report::Json dispatcher = report::Json::object();
  dispatcher.set("sub_batches", stats_.dispatcher.sub_batches);
  report::Json hist = report::Json::array();
  for (const std::uint64_t count : stats_.dispatcher.fill_hist) hist.push(count);
  dispatcher.set("fill_hist", std::move(hist));
  dispatcher.set("imbalance_ratio", stats_.dispatcher.imbalance_ratio);
  j.set("dispatcher", std::move(dispatcher));

  report::Json per_shard = report::Json::array();
  for (std::size_t s = 0; s < stats_.shards.size(); ++s) {
    const ShardStats& shard = stats_.shards[s];
    report::Json item = report::Json::object();
    item.set("shard", static_cast<std::uint64_t>(s));
    item.set("arrivals_dispatched", shard.arrivals_dispatched);
    item.set("arrivals_consumed", shard.arrivals_consumed);
    item.set("arrivals_dropped", shard.arrivals_dropped);
    item.set("batches_dispatched", shard.batches_dispatched);
    item.set("batches_consumed", shard.batches_consumed);
    item.set("batches_dropped", shard.batches_dropped);
    report::Json ring = report::Json::object();
    ring.set("pushed", shard.ring.pushed);
    ring.set("popped", shard.ring.popped);
    ring.set("dropped", shard.ring.dropped);
    ring.set("spin_waits", shard.ring.spin_waits);
    item.set("ring", std::move(ring));
    if (config_.sequences) {
      item.set("sequence_arrivals", sequence_shards_[s].arrivals());
      item.set("sequence_flows", static_cast<std::uint64_t>(sequence_shards_[s].flow_count()));
    }
    if (config_.monitor) {
      item.set("monitor_arrivals", monitor_shards_[s].arrivals());
      item.set("monitor_live", monitor_shards_[s].live_flows());
    }
    per_shard.push(std::move(item));
  }
  j.set("per_shard", std::move(per_shard));
  return j;
}

void ParallelIngestPipeline::emit_jsonl(report::JsonlWriter& out) const {
  report::Json j = report::Json::object();
  j.set("type", "ingest");
  const report::Json body = to_json();
  for (const auto& [key, value] : body.members()) j.set(key, value);
  out.write(j);
}

}  // namespace reorder::ingest
