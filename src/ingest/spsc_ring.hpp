// Bounded lock-free single-producer / single-consumer ring — the transfer
// channel of the line-rate ingest path (ROADMAP item 3).
//
// Shape and guarantees:
//
//   * power-of-two capacity; head (consumer cursor) and tail (producer
//     cursor) are monotonically increasing 64-bit counts masked into the
//     slot array, so full/empty never needs a wasted slot;
//   * the producer writes a slot THEN publishes it with a release store of
//     tail; the consumer reads tail with acquire before touching the slot.
//     Symmetrically for head on the return direction. No locks, no CAS on
//     the cursors — each cursor has exactly one writer;
//   * head and tail live on separate cache lines, and each side keeps a
//     cached copy of the other's cursor so the fast path touches only its
//     own line (the classic Lamport queue refinement);
//   * a side with nothing to do sleeps instead of spinning. pop() blocks on
//     an empty ring until it holds a burst (kBurstDivisor: an eighth of the
//     capacity, at least one item) or is closed; push_spin() blocks on a
//     full ring until it has half drained. Each side is woken once per
//     burst, not once per item, the way interrupt coalescing wakes a CPU
//     once per burst of packets. The wake checks live in try_push() and
//     try_pop() themselves, so a side that only ever polls still wakes a
//     sleeping partner;
//   * backpressure is the caller's policy: try_push() reports a full ring,
//     push_spin() waits for space losslessly (counting each failed push
//     round in spin_waits), push_or_drop() sheds load and counts the drop.
//     The counters are single-writer relaxed atomics: race-free to sample
//     live, exact once the producer and consumer have quiesced (joined).
//
// The sleep handshake. Each side owns one 32-bit word (producer_asleep_,
// consumer_asleep_). A side that finds nothing to do stores 1 in its word,
// issues a seq_cst fence and re-checks the ring; only if there is still
// nothing to do does it std::atomic::wait on the word. The other side
// publishes its cursor, issues a seq_cst fence and then reads the word.
// Store-then-load on both sides with a seq_cst fence between is Dekker's
// pattern: the two fences are totally ordered, so either the sleeper's
// re-check sees the new cursor (and does not sleep) or the publisher's
// load sees the 1 (and wakes it once its threshold is met; the publisher
// keeps seeing the 1 until it does, because only the sleeper stores 1).
// A waker stores 0 before notify_one(), and wait() sleeps only while the
// word reads 1, so a wake that lands before the sleeper reaches the futex
// is not lost. A stale 0 only makes a sleeper re-check and sleep again.
//
// The ring owns default-constructed T slots and moves payloads in and out;
// T must be default-constructible and move-assignable (ArrivalBatch and
// move-only types like unique_ptr both qualify).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace reorder::ingest {

/// Transfer/pressure counters; summable across rings.
struct SpscRingCounters {
  std::uint64_t pushed{0};
  std::uint64_t popped{0};
  std::uint64_t dropped{0};          ///< push_or_drop() refusals
  std::uint64_t spin_waits{0};       ///< failed push rounds in push_spin()
  std::uint64_t producer_sleeps{0};  ///< push_spin() waits on a full ring
  std::uint64_t consumer_sleeps{0};  ///< pop() waits on an empty ring
};

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two >= 1; std::length_error when
  /// no power of two in size_t holds `min_capacity`.
  explicit SpscRing(std::size_t min_capacity) {
    // Past the largest power of two in size_t, doubling would wrap to 0.
    if (min_capacity > std::numeric_limits<std::size_t>::max() / 2 + 1) {
      throw std::length_error{"SpscRing: no power of two holds this capacity"};
    }
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
    burst_ = std::max<std::size_t>(1, cap / kBurstDivisor);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  // ------------------------------------------------------- producer side
  /// Moves `value` in; false (value untouched) when the ring is full.
  /// Wakes a consumer asleep in pop() once the ring holds a burst.
  bool try_push(T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ == slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ == slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    pushed_.fetch_add(1, std::memory_order_relaxed);
    // Store tail (above), fence, load the consumer's word: pairs with the
    // consumer's store of its word, fence, load of tail in pop().
    store_load_fence();
    if (consumer_asleep_.load(std::memory_order_acquire) != 0 &&
        tail + 1 - head_.load(std::memory_order_acquire) >= burst_) {
      wake(consumer_asleep_);
    }
    return true;
  }
  bool try_push(T&& value) { return try_push(value); }

  /// Lossless backpressure: on a full ring the producer sleeps until the
  /// consumer has drained half of it, then retries. Every failed push
  /// round counts into spin_waits (the name predates the sleep; it still
  /// counts how often the producer found the ring full). Only valid while
  /// a consumer is draining, by pop() or by try_pop() alone.
  void push_spin(T value) {
    std::uint64_t rounds = 0;
    while (!try_push(value)) {
      ++rounds;
      // Store the word, fence, load head: pairs with try_pop()'s store of
      // head, fence, load of the word.
      sleep_while(producer_asleep_, producer_sleeps_, [this] {
        return tail_.load(std::memory_order_relaxed) - head_.load(std::memory_order_acquire) ==
               slots_.size();
      });
    }
    if (rounds > 0) spin_waits_.fetch_add(rounds, std::memory_order_relaxed);
  }

  /// Load-shedding backpressure: false (value untouched, drop counted)
  /// when the ring is full.
  bool push_or_drop(T& value) {
    if (try_push(value)) return true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Ends the stream: pop() returns false once the ring is also empty.
  /// Call on the producer thread after its last push. Always wakes the
  /// consumer.
  void close() {
    closed_.store(true, std::memory_order_release);
    // Store closed, fence, then the consumer's word: pairs with the
    // consumer's store of its word, fence, load of closed.
    store_load_fence();
    wake(consumer_asleep_);
  }

  // ------------------------------------------------------- consumer side
  /// Moves the oldest payload into `out`; false when the ring is empty.
  /// Wakes a producer asleep in push_spin() once the ring has half drained.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    popped_.fetch_add(1, std::memory_order_relaxed);
    // Store head (above), fence, load the producer's word: pairs with
    // push_spin()'s store of its word, fence, load of head.
    store_load_fence();
    if (producer_asleep_.load(std::memory_order_acquire) != 0 &&
        tail_.load(std::memory_order_acquire) - (head + 1) <= slots_.size() / 2) {
      wake(producer_asleep_);
    }
    return true;
  }

  /// Blocking pop: sleeps on an empty ring until it holds a burst or is
  /// closed. False once the ring is closed and empty.
  bool pop(T& out) {
    while (!try_pop(out)) {
      if (closed_.load(std::memory_order_acquire)) return try_pop(out);  // pushes before close()
      // Store the word, fence, load tail and closed: pairs with
      // try_push()'s store of tail and close()'s store of closed, fence,
      // load of the word.
      sleep_while(consumer_asleep_, consumer_sleeps_, [this] {
        return tail_.load(std::memory_order_acquire) == head_.load(std::memory_order_relaxed) &&
               !closed_.load(std::memory_order_acquire);
      });
    }
    return true;
  }

  /// Snapshot of the transfer counters — exact once both sides quiesced.
  SpscRingCounters counters() const {
    SpscRingCounters c;
    c.pushed = pushed_.load(std::memory_order_relaxed);
    c.popped = popped_.load(std::memory_order_relaxed);
    c.dropped = dropped_.load(std::memory_order_relaxed);
    c.spin_waits = spin_waits_.load(std::memory_order_relaxed);
    c.producer_sleeps = producer_sleeps_.load(std::memory_order_relaxed);
    c.consumer_sleeps = consumer_sleeps_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  /// A sleeping consumer is woken once the ring holds capacity / 8 items
  /// (at least one): one futex wake per burst of sub-batches.
  static constexpr std::size_t kBurstDivisor = 8;

  /// The seq_cst fence between a side's store and its load in the sleep
  /// handshake. ThreadSanitizer does not model standalone fences, and gcc
  /// warns so at every use under -fsanitize=thread. It needs none here to
  /// see the ring race-free: every slot is handed over by the cursors'
  /// release/acquire pairs, and the fences order only atomics.
  static void store_load_fence() {
#if defined(__SANITIZE_THREAD__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wtsan"
    __atomic_thread_fence(__ATOMIC_SEQ_CST);
#pragma GCC diagnostic pop
#else
    std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
  }

  static void wake(std::atomic<std::uint32_t>& asleep) {
    if (asleep.exchange(0, std::memory_order_release) != 0) asleep.notify_one();
  }

  /// The sleeping half of the handshake: announce in `asleep`, fence, and
  /// wait on the word only if `idle()` still holds after the fence.
  template <typename Idle>
  static void sleep_while(std::atomic<std::uint32_t>& asleep, std::atomic<std::uint64_t>& sleeps,
                          Idle idle) {
    asleep.store(1, std::memory_order_release);
    store_load_fence();
    if (!idle()) {
      asleep.store(0, std::memory_order_relaxed);
      return;
    }
    sleeps.fetch_add(1, std::memory_order_relaxed);
    asleep.wait(1, std::memory_order_acquire);
  }

  std::vector<T> slots_;
  std::size_t mask_{0};
  std::size_t burst_{1};
  // Each sleep word sits on the line of the side that polls it after
  // every publish, so that check stays a hit in the publisher's own cache;
  // the sleeper writes it only when it goes to sleep.
  // Consumer cursor + the consumer-owned cache of the producer's cursor.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_{0};
  std::atomic<std::uint64_t> popped_{0};
  std::atomic<std::uint64_t> consumer_sleeps_{0};
  std::atomic<std::uint32_t> producer_asleep_{0};
  // Producer cursor + the producer-owned cache of the consumer's cursor.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_{0};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> spin_waits_{0};
  std::atomic<std::uint64_t> producer_sleeps_{0};
  std::atomic<std::uint32_t> consumer_asleep_{0};
  std::atomic<bool> closed_{false};
};

}  // namespace reorder::ingest
