// The line-rate ingest subsystem's building blocks, enforced:
//
//   * SpscRing is a correct bounded FIFO at every boundary — empty, full,
//     wrap-around, move-only payloads — and a real producer/consumer
//     thread pair streams a long sequence through a tiny ring intact (the
//     TSAN job proves the fences);
//   * the sleep handshake loses no wake: a sleeping pop() and a sleeping
//     push_spin() stream 200k items in order at capacities 1 to 64 while
//     both sides stall at random, close() ends a sleeping consumer, and
//     try_pop() alone wakes a sleeping producer; a watchdog fails a run
//     that stops moving instead of letting it hang;
//   * backpressure is observable: push_or_drop counts every shed batch,
//     push_spin counts every failed push round and every sleep;
//   * ArrivalBatch's SoA lanes and run iteration reproduce the pushed
//     stream exactly; the builder recycles storage;
//   * FlowTable::lookup_run is bit-exact with the scalar lookup loop —
//     same counters, same ticks, same eviction pattern;
//   * the batched engine paths (observe_arrivals spans,
//     MonitorEngine::ingest_batch) produce byte-identical snapshots and
//     JSONL to the scalar per-arrival paths, over every scenario in the
//     library — batching buys amortization, never a different answer.
//     The threaded pipeline's end-to-end identity, saturation and drop
//     accounting live in parallel_ingest_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "ingest/arrival_batch.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/spsc_ring.hpp"
#include "monitor/differential.hpp"
#include "monitor/engine.hpp"
#include "monitor/flow_table.hpp"
#include "util/random.hpp"
#include "util/shard_seeder.hpp"

namespace reorder::ingest {
namespace {

// Small but structured multi-flow traffic for the equivalence matrix.
monitor::TrafficOptions small_traffic() {
  monitor::TrafficOptions opt;
  opt.flows = 6;
  opt.packets_per_flow = 64;
  opt.evade_displacement = 20;
  opt.flood_flows = 192;
  opt.flood_packets = 8;
  opt.flood_active = 24;
  opt.coalesce_frames = 12;
  return opt;
}

// ------------------------------------------------------------ SpscRing

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>{1}.capacity(), 1u);
  EXPECT_EQ(SpscRing<int>{3}.capacity(), 4u);
  EXPECT_EQ(SpscRing<int>{64}.capacity(), 64u);
  EXPECT_EQ(SpscRing<int>{65}.capacity(), 128u);
}

TEST(SpscRing, CapacityPastTheLargestPowerOfTwoThrows) {
  // No power of two in size_t holds these, and doubling past 2^63 would
  // wrap to 0 and never end.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(SpscRing<int>{kMax}, std::length_error);
  EXPECT_THROW(SpscRing<int>{(kMax >> 1) + 2}, std::length_error);
}

TEST(SpscRing, FullAndEmptyBoundaries) {
  SpscRing<int> ring{4};
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));  // empty
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int{i}));
  int rejected = 99;
  EXPECT_FALSE(ring.try_push(rejected));  // full
  EXPECT_EQ(rejected, 99);                // untouched on refusal
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, WrapAroundPreservesFifoOrder) {
  SpscRing<int> ring{4};
  int out = -1;
  int next_push = 0;
  int next_pop = 0;
  // Interleaved push/pop far past the capacity: the cursors wrap the
  // slot array many times and order must hold throughout.
  for (int round = 0; round < 64; ++round) {
    while (ring.try_push(int{next_push})) ++next_push;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, next_pop++);
  }
  while (ring.try_pop(out)) EXPECT_EQ(out, next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRing, MoveOnlyPayloads) {
  SpscRing<std::unique_ptr<int>> ring{2};
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(7)));
  EXPECT_TRUE(ring.try_push(std::make_unique<int>(8)));
  std::unique_ptr<int> extra = std::make_unique<int>(9);
  EXPECT_FALSE(ring.try_push(extra));
  ASSERT_NE(extra, nullptr);  // refused push does not consume
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(*out, 7);
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(*out, 8);
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, DropPolicyCountsSheddedPushes) {
  SpscRing<int> ring{2};
  int v = 0;
  EXPECT_TRUE(ring.push_or_drop(v));
  v = 1;
  EXPECT_TRUE(ring.push_or_drop(v));
  v = 2;
  EXPECT_FALSE(ring.push_or_drop(v));
  EXPECT_FALSE(ring.push_or_drop(v));
  const SpscRingCounters c = ring.counters();
  EXPECT_EQ(c.pushed, 2u);
  EXPECT_EQ(c.dropped, 2u);
  EXPECT_EQ(c.spin_waits, 0u);
}

// Fails the run, rather than letting ctest hang, when `progress` stops
// moving for kLimit: a lost wake leaves a side asleep for good, and the
// other side waiting on it.
class Watchdog {
 public:
  static constexpr std::chrono::seconds kLimit{10};

  Watchdog(std::function<std::uint64_t()> progress, std::string what)
      : thread_{[this, progress = std::move(progress), what = std::move(what)] {
          std::uint64_t last = progress();
          auto moved = std::chrono::steady_clock::now();
          while (!stop_.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds{5});
            const std::uint64_t now = progress();
            if (now != last) {
              last = now;
              moved = std::chrono::steady_clock::now();
            } else if (std::chrono::steady_clock::now() - moved > kLimit) {
              std::fprintf(stderr, "FAIL: %s: no progress for %lld s at %llu (a lost wake)\n",
                           what.c_str(), static_cast<long long>(kLimit.count()),
                           static_cast<unsigned long long>(now));
              std::fflush(stderr);
              std::_Exit(1);
            }
          }
        }} {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

template <typename T>
std::function<std::uint64_t()> ring_progress(const SpscRing<T>& ring) {
  return [&ring] {
    const SpscRingCounters c = ring.counters();
    return c.pushed + c.popped;
  };
}

TEST(SpscRing, ThreadedStreamArrivesIntactThroughTinyRing) {
  // A 4-slot ring forces constant wrap-around and producer/consumer
  // contention; under TSAN this is the proof of the acquire/release
  // pairing. Values must arrive complete and in order.
  constexpr std::uint64_t kCount = 200'000;
  SpscRing<std::uint64_t> ring{4};
  const Watchdog watchdog{ring_progress(ring), "tiny ring"};
  std::uint64_t sum = 0;
  std::uint64_t popped = 0;
  bool ordered = true;
  std::thread consumer{[&] {
    std::uint64_t v = 0;
    while (popped < kCount) {
      if (ring.try_pop(v)) {
        ordered = ordered && v == popped;
        sum += v;
        ++popped;
      } else {
        std::this_thread::yield();
      }
    }
  }};
  std::thread producer{[&] {
    for (std::uint64_t i = 0; i < kCount; ++i) ring.push_spin(i);
  }};
  producer.join();
  consumer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(popped, kCount);
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
  const SpscRingCounters c = ring.counters();
  EXPECT_EQ(c.pushed, kCount);
  EXPECT_EQ(c.popped, kCount);
  EXPECT_EQ(c.dropped, 0u);
}

TEST(SpscRing, SpinBackoffStaysLosslessUnderSaturation) {
  // push_spin sleeps on a full ring until the consumer has drained half
  // of it; how the producer waits never changes whether delivery is
  // lossless or ordered. A 2-slot ring against a consumer that stalls
  // every 64 pops and otherwise only polls with try_pop() keeps the ring
  // saturated, so the producer sleeps and is woken by try_pop() alone;
  // spin_waits must still count the failed push rounds.
  constexpr std::uint64_t kCount = 50'000;
  SpscRing<std::uint64_t> ring{2};
  const Watchdog watchdog{ring_progress(ring), "saturated ring"};
  std::uint64_t popped = 0;
  bool ordered = true;
  std::thread consumer{[&] {
    std::uint64_t v = 0;
    while (popped < kCount) {
      if (ring.try_pop(v)) {
        ordered = ordered && v == popped;
        ++popped;
        if ((popped & 63u) == 0) {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds{50};
          while (std::chrono::steady_clock::now() < until) {
          }
        }
      } else {
        std::this_thread::yield();
      }
    }
  }};
  for (std::uint64_t i = 0; i < kCount; ++i) ring.push_spin(i);
  consumer.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(popped, kCount);
  const SpscRingCounters c = ring.counters();
  EXPECT_EQ(c.pushed, kCount);
  EXPECT_EQ(c.popped, kCount);
  EXPECT_EQ(c.dropped, 0u);
  EXPECT_GT(c.spin_waits, 0u);  // the producer found the ring full, and counted it
}

/// Busy-waits 1-8 us every 1 to 2 * capacity + 16 items, both drawn from
/// a splitmix64 chain: each side of a ring stalls at its own random
/// points, so the other side finds the ring empty or full and sleeps.
class Staller {
 public:
  Staller(std::uint64_t seed, std::size_t capacity)
      : state_{seed}, span_{2 * capacity + 16}, left_{draw() % span_} {}

  void item() {
    if (left_-- > 0) return;
    left_ = draw() % span_;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds{1 + draw() % 8};
    while (std::chrono::steady_clock::now() < until) {
    }
  }

 private:
  std::uint64_t draw() { return util::splitmix64(++state_); }

  std::uint64_t state_;
  std::uint64_t span_;
  std::uint64_t left_;
};

TEST(SpscRing, SleepHandshakeLosesNoWake) {
  // A push_spin producer and a pop() consumer, each stalling at random,
  // so both sides go to sleep thousands of times: on an empty ring the
  // consumer sleeps until a burst arrives, on a full one the producer
  // sleeps until half has drained. A lost wake would leave a side asleep
  // for good (the watchdog fails the run); every item must arrive, in
  // order, and close() must end the consumer.
  constexpr std::uint64_t kCount = 200'000;
  for (const std::size_t capacity : {1u, 2u, 8u, 64u}) {
    SpscRing<std::uint64_t> ring{capacity};
    const Watchdog watchdog{ring_progress(ring), "capacity " + std::to_string(capacity)};
    std::uint64_t popped = 0;
    bool ordered = true;
    std::thread consumer{[&] {
      Staller stall{0xc0ffee + capacity, capacity};
      std::uint64_t v = 0;
      while (ring.pop(v)) {
        ordered = ordered && v == popped;
        ++popped;
        stall.item();
      }
    }};
    Staller stall{0xfeed + capacity, capacity};
    for (std::uint64_t i = 0; i < kCount; ++i) {
      ring.push_spin(i);
      stall.item();
    }
    ring.close();
    consumer.join();
    EXPECT_TRUE(ordered) << capacity;
    EXPECT_EQ(popped, kCount) << capacity;
    const SpscRingCounters c = ring.counters();
    EXPECT_EQ(c.pushed, kCount) << capacity;
    EXPECT_EQ(c.popped, kCount) << capacity;
    EXPECT_GT(c.consumer_sleeps, 0u) << capacity;
    EXPECT_GT(c.producer_sleeps, 0u) << capacity;
    EXPECT_GE(c.spin_waits, c.producer_sleeps) << capacity;  // each sleep follows a failed push
  }
}

TEST(SpscRing, CloseWakesAConsumerAsleepOnAnEmptyRing) {
  // A consumer asleep in pop() returns false promptly at close(). Here
  // the producer first queues fewer items than a burst (2 of 64: too few
  // to wake it), so close() must also hand those over before the end.
  SpscRing<int> ring{64};
  const Watchdog watchdog{ring_progress(ring), "close"};
  std::vector<int> got;
  std::thread consumer{[&] {
    int v = 0;
    while (ring.pop(v)) got.push_back(v);
  }};
  while (ring.counters().consumer_sleeps == 0) std::this_thread::yield();
  EXPECT_TRUE(ring.try_push(7));
  EXPECT_TRUE(ring.try_push(8));
  const auto closed = std::chrono::steady_clock::now();
  ring.close();
  consumer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - closed, std::chrono::seconds{2});
  EXPECT_EQ(got, (std::vector<int>{7, 8}));
  int v = 0;
  EXPECT_FALSE(ring.pop(v));  // closed and empty: never blocks again
}

TEST(SpscRing, TryPopAloneWakesAProducerAsleepOnAFullRing) {
  // perfbench's hand-off probe shape: the producer waits in push_spin, the
  // consumer only ever calls try_pop() and yields. The wake check lives in
  // try_pop() itself, so the sleeping producer is woken once half the ring
  // has drained.
  constexpr std::uint64_t kCount = 4096;
  SpscRing<std::uint64_t> ring{64};
  const Watchdog watchdog{ring_progress(ring), "try_pop wakes"};
  std::thread producer{[&] {
    for (std::uint64_t i = 0; i < kCount; ++i) ring.push_spin(i);
  }};
  while (ring.counters().producer_sleeps == 0) std::this_thread::yield();  // asleep on 64 items
  std::uint64_t popped = 0;
  bool ordered = true;
  for (std::uint64_t v = 0; popped < kCount;) {
    if (ring.try_pop(v)) {
      ordered = ordered && v == popped;
      ++popped;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  EXPECT_TRUE(ordered);
  const SpscRingCounters c = ring.counters();
  EXPECT_EQ(c.popped, kCount);
  EXPECT_GE(c.producer_sleeps, 1u);
  EXPECT_EQ(c.consumer_sleeps, 0u);
}

// -------------------------------------------------------- ArrivalBatch

TEST(ArrivalBatch, SoaLanesAndRunIterationReproduceTheStream) {
  ArrivalBatch batch{8};
  EXPECT_TRUE(batch.empty());
  // Three maximal runs: 7,7 | 9 | 7,7,7 — a repeated flow id starts a
  // NEW run when another flow interleaves.
  const std::uint64_t flows[] = {7, 7, 9, 7, 7, 7};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(batch.push(flows[i], static_cast<std::uint32_t>(i), static_cast<std::int64_t>(100 + i)));
  }
  EXPECT_EQ(batch.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(batch.flows()[i], flows[i]);
    EXPECT_EQ(batch.send_indices()[i], i);
    EXPECT_EQ(batch.timestamps_ns()[i], static_cast<std::int64_t>(100 + i));
  }
  std::vector<ArrivalBatch::Run> runs;
  batch.for_each_run([&runs](const ArrivalBatch::Run& run) { runs.push_back(run); });
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].flow, 7u);
  EXPECT_EQ(runs[0].count, 2u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[1].flow, 9u);
  EXPECT_EQ(runs[1].count, 1u);
  EXPECT_EQ(runs[2].flow, 7u);
  EXPECT_EQ(runs[2].count, 3u);
  EXPECT_EQ(runs[2].offset, 3u);
  EXPECT_EQ(runs[2].send[0], 3u);

  ArrivalBatch full{2};
  EXPECT_TRUE(full.push(1, 0, 0));
  EXPECT_TRUE(full.push(1, 1, 0));
  EXPECT_FALSE(full.push(1, 2, 0));  // at capacity
  EXPECT_EQ(full.size(), 2u);
}

TEST(ArrivalBatchBuilder, SignalsFullAndRecyclesStorage) {
  ArrivalBatchBuilder builder{3};
  EXPECT_FALSE(builder.push(1, 0, 0));
  EXPECT_FALSE(builder.push(1, 1, 0));
  EXPECT_TRUE(builder.push(1, 2, 0));  // just became full -> ship it
  ArrivalBatch shipped = builder.take();
  EXPECT_EQ(shipped.size(), 3u);
  EXPECT_EQ(builder.size(), 0u);  // re-armed
  shipped.clear();
  builder.recycle(std::move(shipped));
  EXPECT_FALSE(builder.push(2, 0, 0));
  ArrivalBatch next = builder.take();  // the recycled storage, refilled
  EXPECT_EQ(next.size(), 1u);
  EXPECT_EQ(next.capacity(), 3u);
  EXPECT_EQ(next.flows()[0], 2u);
}

// ---------------------------------------------- FlowTable::lookup_run

TEST(FlowTable, LookupRunIsBitExactWithScalarLookups) {
  // A tiny table under a churning key stream with same-key runs: the
  // batched lookup must reproduce the scalar loop's counters, ticks and
  // eviction pattern exactly (recency decides victims, so a tick drift
  // would show up as a different eviction sequence).
  monitor::FlowTableConfig cfg;
  cfg.slots = 8;
  cfg.ways = 2;
  cfg.seed = 42;
  monitor::FlowTable scalar{cfg};
  monitor::FlowTable batched{cfg};
  util::Rng rng{1234};
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t key = rng.below(24);  // 3x the slots: constant eviction
    const std::uint64_t run = 1 + rng.below(7);
    monitor::FlowTable::Ref last{};
    for (std::uint64_t i = 0; i < run; ++i) last = scalar.lookup(key);
    const monitor::FlowTable::Ref ref = batched.lookup_run(key, run);
    // The run's FIRST lookup decides slot/insert/evict; later hits don't.
    EXPECT_EQ(ref.slot, last.slot);
    ASSERT_EQ(scalar.to_json().dump(), batched.to_json().dump());
  }
  for (std::uint64_t key = 0; key < 24; ++key) {
    EXPECT_EQ(scalar.find(key), batched.find(key)) << key;
  }
}

// ------------------------------------- batched == scalar, per engine

TEST(MonitorEngine, IngestBatchMatchesScalarIngestOverEveryScenario) {
  for (const std::string& scenario : core::scenarios::names()) {
    const std::vector<monitor::MonitorArrival> arrivals =
        monitor::scenario_arrivals(scenario, 17, small_traffic());
    monitor::MonitorConfig cfg;
    cfg.table.slots = 64;  // small enough that flood actually evicts
    monitor::MonitorEngine scalar{cfg};
    monitor::MonitorEngine batched{cfg};
    for (const monitor::MonitorArrival& a : arrivals) scalar.ingest(a.flow, a.send_index);

    // Batch the stream at an unaligned grain so same-flow runs split
    // across batch boundaries (the boundary case lookup_run must get
    // right: a split run is two shorter runs).
    ArrivalBatch batch{37};
    for (const monitor::MonitorArrival& a : arrivals) {
      if (!batch.push(a.flow, a.send_index, 0)) {
        batched.ingest_batch(batch);
        batch.clear();
        batch.push(a.flow, a.send_index, 0);
      }
    }
    batched.ingest_batch(batch);

    scalar.flush();
    batched.flush();
    EXPECT_EQ(scalar.to_json().dump(), batched.to_json().dump()) << scenario;

    std::ostringstream scalar_jsonl, batched_jsonl;
    report::JsonlWriter ws{scalar_jsonl}, wb{batched_jsonl};
    scalar.emit_jsonl(ws);
    batched.emit_jsonl(wb);
    EXPECT_EQ(scalar_jsonl.str(), batched_jsonl.str()) << scenario;
  }
}

TEST(MonitorEngine, PointerLengthIngestSequenceMatchesVectorAndScalar) {
  const std::vector<std::uint32_t> seq{0, 2, 1, 4, 3, 5, 6, 8, 7};
  monitor::MonitorEngine via_span, via_vector, via_scalar;
  via_span.ingest_sequence(99, seq.data(), seq.size());
  via_vector.ingest_sequence(99, seq);
  for (const std::uint32_t s : seq) via_scalar.ingest(99, s);
  via_scalar.end_flow(99);
  EXPECT_EQ(via_span.to_json().dump(), via_scalar.to_json().dump());
  EXPECT_EQ(via_vector.to_json().dump(), via_scalar.to_json().dump());
}

TEST(SequenceEngine, BatchedRunsMatchScalarObserves) {
  const std::vector<monitor::MonitorArrival> arrivals =
      monitor::scenario_arrivals("interrupt-coalescing", 23, small_traffic());
  SequenceEngine scalar;
  SequenceEngine batched;
  for (const monitor::MonitorArrival& a : arrivals) scalar.observe(a.flow, a.send_index);
  ArrivalBatch batch{29};
  for (const monitor::MonitorArrival& a : arrivals) {
    if (!batch.push(a.flow, a.send_index, 0)) {
      batched.ingest_batch(batch);
      batch.clear();
      batch.push(a.flow, a.send_index, 0);
    }
  }
  batched.ingest_batch(batch);
  scalar.flush();
  batched.flush();
  EXPECT_EQ(scalar.arrivals(), batched.arrivals());
  EXPECT_EQ(scalar.flow_count(), batched.flow_count());
  EXPECT_EQ(scalar.to_json().dump(), batched.to_json().dump());
  // to_json() folds in sorted-key order: repeated snapshots are stable.
  EXPECT_EQ(batched.to_json().dump(), batched.to_json().dump());
}

}  // namespace
}  // namespace reorder::ingest
