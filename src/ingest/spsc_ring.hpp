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
//     Symmetrically for head on the return direction. No locks, no CAS —
//     each cursor has exactly one writer;
//   * head and tail live on separate cache lines, and each side keeps a
//     cached copy of the other's cursor so the fast path touches only its
//     own line (the classic Lamport queue refinement);
//   * backpressure is the caller's policy: try_push() reports a full ring,
//     push_spin() blocks spinning (counting the waits), push_or_drop()
//     sheds load and counts the drop. The counters are single-writer
//     relaxed atomics: race-free to sample live, exact once the producer
//     and consumer have quiesced (joined).
//
// The ring owns default-constructed T slots and moves payloads in and out;
// T must be default-constructible and move-assignable (ArrivalBatch and
// move-only types like unique_ptr both qualify).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace reorder::ingest {

/// One polite busy-wait beat: tells the core this is a spin loop (x86
/// `pause` releases the sibling hyperthread and cuts the exit-misprediction
/// flush; arm `yield` is the same hint), falling back to a scheduler yield
/// where no such instruction exists.
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Transfer/pressure counters; summable across rings.
struct SpscRingCounters {
  std::uint64_t pushed{0};
  std::uint64_t popped{0};
  std::uint64_t dropped{0};     ///< push_or_drop() refusals
  std::uint64_t spin_waits{0};  ///< full-ring spin rounds in push_spin()
};

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two >= 1.
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 1;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  // ------------------------------------------------------- producer side
  /// Moves `value` in; false (value untouched) when the ring is full.
  bool try_push(T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ == slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ == slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    pushed_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  bool try_push(T&& value) { return try_push(value); }

  /// Spin-blocking backpressure: waits for space with exponential backoff —
  /// cpu-pause bursts doubling 1, 2, 4, ... up to kSpinPauseCap beats, then
  /// scheduler yields — so a briefly-full ring is re-probed within
  /// nanoseconds while a long-full one stops burning the consumer's core.
  /// Every failed-push round still counts into spin_waits (the counter's
  /// semantics predate the backoff and the tests pin them). Only valid
  /// while a consumer is actually draining.
  void push_spin(T value) {
    std::uint64_t rounds = 0;
    std::uint32_t pauses = 1;
    while (!try_push(value)) {
      ++rounds;
      if (pauses <= kSpinPauseCap) {
        for (std::uint32_t i = 0; i < pauses; ++i) cpu_pause();
        pauses <<= 1;
      } else {
        std::this_thread::yield();
      }
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

  // ------------------------------------------------------- consumer side
  /// Moves the oldest payload into `out`; false when the ring is empty.
  bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    popped_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Snapshot of the transfer counters — exact once both sides quiesced.
  SpscRingCounters counters() const {
    SpscRingCounters c;
    c.pushed = pushed_.load(std::memory_order_relaxed);
    c.popped = popped_.load(std::memory_order_relaxed);
    c.dropped = dropped_.load(std::memory_order_relaxed);
    c.spin_waits = spin_waits_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  /// Longest cpu-pause burst before push_spin degrades to yields (~a few
  /// hundred ns: about one cross-core cache-miss round trip).
  static constexpr std::uint32_t kSpinPauseCap = 64;

  std::vector<T> slots_;
  std::size_t mask_{0};
  // Consumer cursor + the consumer-owned cache of the producer's cursor.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_{0};
  std::atomic<std::uint64_t> popped_{0};
  // Producer cursor + the producer-owned cache of the consumer's cursor.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_{0};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> spin_waits_{0};
};

}  // namespace reorder::ingest
