// Discrete-event simulation core: the one clock and scheduler that the
// protocol stacks (tcpip), the probe and every netsim stage run on.
// Single-threaded; events run in timestamp order with FIFO tie-breaking,
// which makes every experiment bit-for-bit reproducible from its seeds.
//
// The scheduler is an indexed 4-ary min-heap keyed by (timestamp, seq) over
// a slot array with an intrusive freelist: steady-state schedule/pop/cancel
// touches no allocator once the heap and slot vectors have grown to the
// simulation's high-water mark. Callbacks are sim::Callback
// (util::InplaceFunction), constructed straight into their slot, so
// captures — including whole packets in flight between netsim stages —
// live inside the slot array. Tokens carry the event's sequence number
// over its slot index, so a token can always prove it still names the
// event it was issued for. Cancellation is lazy: cancel() invalidates the
// slot's live tag and drops the capture immediately; the orphaned heap
// entry is skipped when it surfaces. A cancellable pending event is held
// by a sim::Timer (below), which owns it: destroying the timer cancels it.
//
// The previous std::map implementation is retained behind
// QueuePolicy::kReferenceMap as a differential-testing oracle (the
// order-equivalence suite replays every canonical scenario on both and
// asserts identical event sequences) and as the "before" side of the
// scheduling microbenchmarks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace reorder::sim {

/// Capacity of a scheduled callback's inline capture buffer. Sized for the
/// largest hot-path capture: a netsim stage forwarding lambda carrying a
/// whole tcpip::Packet by value (headers + payload vector + metadata), with
/// headroom for a Timer's callback (the timer's own pointer plus its
/// callable: a pointer to the run or endpoint, or a paced packet). Compile-
/// time enforced — an oversized capture fails the static_assert in
/// InplaceFunction rather than silently allocating.
inline constexpr std::size_t kCallbackCapacity = 192;

/// Deferred-execution callback: move-only, never heap-allocates its capture.
using Callback = util::InplaceFunction<void(), kCallbackCapacity>;

/// The simulation clock and scheduler.
class EventLoop {
 public:
  enum class QueuePolicy {
    kIndexedHeap,   ///< allocation-free indexed heap (the default)
    kReferenceMap,  ///< original std::map queue, kept as a test oracle
  };

  EventLoop() = default;
  explicit EventLoop(QueuePolicy policy) : policy_{policy} {}

  util::TimePoint now() const { return now_; }
  QueuePolicy policy() const { return policy_; }

  /// Schedules `f` at now() + delay (delay clamped to >= 0). The callable
  /// is constructed directly in its scheduler slot. Returns a token for
  /// cancel(); tokens are never zero, so 0 can mean "nothing pending".
  template <class F>
  std::uint64_t schedule(util::Duration delay, F&& f) {
    if (delay.is_negative()) delay = util::Duration::nanos(0);
    return emplace_event(now_ + delay, std::forward<F>(f));
  }

  /// Schedules `f` at an absolute time (clamped to >= now()).
  template <class F>
  std::uint64_t schedule_at(util::TimePoint at, F&& f) {
    return emplace_event(at, std::forward<F>(f));
  }

  /// Cancels a scheduled event; no-op if it already ran or was cancelled,
  /// and for the "nothing pending" token 0.
  void cancel(std::uint64_t token);

  /// Allocates a packet uid, unique within this loop's world and never
  /// zero. Uids tie sample packets to trace captures (ground truth), so
  /// they number the world's own packets only: the same world draws the
  /// same uids whatever thread runs it and whatever ran before.
  std::uint64_t next_packet_uid() { return ++packet_uids_; }

  /// Runs every pending event (including ones scheduled while running).
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Runs events with timestamp <= deadline; leaves now() at the deadline
  /// (or the last event time if the queue empties beyond it).
  std::uint64_t run_until(util::TimePoint deadline);

  /// Runs until `keep_going` returns false, the queue empties, or
  /// `deadline` passes; the clock never ends up before `deadline` unless
  /// stopped by the predicate. Returns true if stopped by request.
  bool run_while(util::TimePoint deadline, const std::function<bool()>& keep_going);

  /// Convenience: advance the clock by `d`, running due events.
  void advance(util::Duration d) { run_until(now_ + d); }

  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }
  std::uint64_t events_executed() const { return executed_; }

  /// Observation hook for differential tests: called just before each event
  /// runs, with the event's timestamp and its scheduling sequence number.
  /// Two loops fed the same workload must produce identical hook streams.
  using ExecutedHook = std::function<void(util::TimePoint, std::uint64_t)>;
  void set_executed_hook(ExecutedHook hook) { hook_ = std::move(hook); }

 private:
  // --- indexed-heap queue ---
  //
  // A heap entry is 16 bytes: the timestamp plus one word packing the
  // scheduling sequence number (high 40 bits) over the slot index (low 24
  // bits). Ordering by the packed word equals ordering by seq — seq is
  // unique, so the tie-break never reaches the slot bits — and the sift
  // loops move a third less data than a naive (time, seq, slot, gen)
  // layout. 2^40 events per loop and 2^24 concurrent events are far above
  // anything a survey reaches (a week of continuous simulation at 1M
  // events/s stays under 2^40).
  struct HeapEntry {
    std::int64_t at_ns;
    std::uint64_t seq_slot;
  };
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// Per-slot bookkeeping lives apart from the fat callback array so the
  /// liveness checks and freelist walks stay in a dense, L1-resident
  /// vector. `live_seq` is the seq of the slot's current event, 0 when the
  /// slot is free or its event was cancelled (seq starts at 1) — the
  /// staleness check for lazy cancellation, and cancel's proof that a
  /// token still names the event it was issued for.
  struct SlotMeta {
    std::uint64_t live_seq{0};
    std::uint32_t next_free{kNilSlot};
  };

  /// (timestamp, seq_slot) as one 128-bit key: a single branch-friendly
  /// compare in the sift loops instead of two data-dependent ones.
  /// Timestamps are never negative (emplace_event clamps to now() and the
  /// epoch is 0), so the uint64 reinterpretation preserves order.
  static unsigned __int128 key_of(const HeapEntry& e) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.at_ns)) << 64) |
           e.seq_slot;
  }
  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    return key_of(a) < key_of(b);
  }
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t index);
  void heap_push(HeapEntry entry);
  HeapEntry heap_pop_top();
  /// Drops lazily-cancelled entries off the top; afterwards the top entry
  /// (if any) is live.
  void purge_top();

  // --- reference std::map queue (differential-testing oracle) ---
  struct Key {
    std::int64_t at_ns;
    std::uint64_t seq;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  /// Inserts into the reference map queue.
  std::uint64_t push(util::TimePoint at, Callback&& fn);
  bool pop_and_run();

  template <class F>
  std::uint64_t emplace_event(util::TimePoint at, F&& f) {
    if (at < now_) at = now_;
    if (policy_ == QueuePolicy::kReferenceMap) return push(at, Callback{std::forward<F>(f)});
    const std::uint32_t slot = alloc_slot();
    fns_[slot].emplace(std::forward<F>(f));
    return arm_slot(at, slot);
  }

  /// Tags `slot` with a fresh seq and inserts it into the heap. The packed
  /// word doubles as the token: seq starts at 1, so a token is never 0
  /// (the universal "no timer armed" sentinel), and seq never repeats, so
  /// tokens are unique for the loop's lifetime.
  std::uint64_t arm_slot(util::TimePoint at, std::uint32_t slot) {
    const std::uint64_t seq = next_seq_++;
    ++live_;
    meta_[slot].live_seq = seq;
    const std::uint64_t seq_slot = (seq << kSlotBits) | slot;
    heap_push(HeapEntry{at.ns(), seq_slot});
    return seq_slot;
  }

  QueuePolicy policy_{QueuePolicy::kIndexedHeap};
  util::TimePoint now_;
  std::uint64_t next_seq_{1};  ///< starts at 1 so packed tokens are never 0
  std::uint64_t executed_{0};
  std::size_t live_{0};  ///< scheduled and not yet run or cancelled
  ExecutedHook hook_;

  std::vector<HeapEntry> heap_;
  std::vector<SlotMeta> meta_;
  std::vector<Callback> fns_;  ///< parallel to meta_
  std::uint32_t free_head_{kNilSlot};

  std::uint64_t next_token_{1};
  std::map<Key, std::pair<std::uint64_t, Callback>> map_queue_;
  std::map<std::uint64_t, Key> by_token_;

  std::uint64_t packet_uids_{0};
};

/// At most one pending event on an EventLoop — the one timer every
/// protocol state machine, probe run and netsim stage holds its pending
/// event in. arm() cancels the pending event, then schedules `fn`, so only
/// the last armed callback ever runs; the timer disarms before `fn` runs,
/// so `fn` may re-arm it. Destroying the timer cancels what it holds, so
/// the loop must outlive it. The scheduled event captures the timer's
/// address: a Timer never moves.
class Timer {
 public:
  explicit Timer(EventLoop& loop) : loop_{&loop} {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// `fn` is a template parameter, never a std::function, so a capture of
  /// plain pointers stays trivially copyable inside the Callback.
  template <class F>
  void arm(util::Duration delay, F fn) {
    cancel();
    token_ = loop_->schedule(delay, [this, fn = std::move(fn)]() mutable {
      token_ = 0;
      fn();
    });
  }

  void cancel() {
    if (token_ != 0) loop_->cancel(std::exchange(token_, 0));
  }

  bool armed() const { return token_ != 0; }

 private:
  EventLoop* loop_;
  std::uint64_t token_{0};  ///< 0 when nothing is pending
};

}  // namespace reorder::sim
