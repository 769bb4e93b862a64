// Discrete-event simulation core: the one clock and scheduler that the
// protocol stacks (tcpip), the probe and every netsim stage run on.
// Single-threaded; events run in timestamp order with FIFO tie-breaking,
// which makes every experiment bit-for-bit reproducible from its seeds.
//
// The scheduler is an indexed 4-ary min-heap keyed by (timestamp, seq) over
// a slot array with an intrusive freelist: steady-state schedule/pop/cancel
// touches no allocator once the heap and slot vectors have grown to the
// simulation's high-water mark. Callbacks are sim::Callback
// (util::InplaceFunction), constructed straight into their slot and run
// there: the callback blocks never move. Tokens carry the event's sequence
// number over its slot index, so a token can always prove it still names
// the event it was issued for. Each slot records where its entry sits in
// the heap, so cancel() takes the entry out at once: the heap holds live
// events only. A cancellable pending event is held by a sim::Timer
// (below), which owns it: destroying the timer cancels it, and re-arming
// an armed timer re-keys its entry in place. Packets in flight do not ride
// inside events: a netsim link or delay stage holds its own in accept
// order, and its delivery event captures only the stage.
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
#include <memory>
#include <utility>
#include <vector>

#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace reorder::sim {

/// Capacity of a scheduled callback's inline capture buffer. Sized for the
/// largest capture still scheduled: a whole tcpip::Packet by value
/// (headers + payload vector + metadata) inside a Timer's callback (the
/// timer's own pointer, the run, and the paced second packet of a sample
/// waiting out its gap), which JitterStage's and StripedLink's forwarding
/// lambdas (`this` + a packet) also fit. Compile-time enforced — an
/// oversized capture fails the static_assert in InplaceFunction rather
/// than silently allocating.
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

  explicit EventLoop(QueuePolicy policy = QueuePolicy::kIndexedHeap);

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

  /// cancel(token) then schedule(delay, f), in one step: the event `token`
  /// names, if still pending, is re-keyed in place to its new time with a
  /// fresh seq and `f` as its callback. Every event keeps the (time, seq)
  /// the two calls would give it. Returns the new token.
  template <class F>
  std::uint64_t reschedule(std::uint64_t token, util::Duration delay, F&& f) {
    if (delay.is_negative()) delay = util::Duration::nanos(0);
    const util::TimePoint at = now_ + delay;
    const auto slot = static_cast<std::uint32_t>(token & kSlotMask);
    if (policy_ == QueuePolicy::kReferenceMap || !pending_slot(token)) {
      cancel(token);
      return emplace_event(at, std::forward<F>(f));
    }
    fn_at(slot).emplace(std::forward<F>(f));
    const std::uint64_t seq_slot = tag_slot(slot);
    heap_place(meta_[slot].heap_pos, HeapEntry{at.ns(), seq_slot});
    return seq_slot;
  }

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
  /// stopped by the predicate. Returns true if stopped by request. The
  /// predicate is a template parameter: it is asked before every event.
  template <class KeepGoing>
  bool run_while(util::TimePoint deadline, KeepGoing&& keep_going) {
    while (keep_going()) {
      std::int64_t at = 0;
      if (!next_at(at)) {
        // Queue drained before the deadline: the clock still advances to
        // the deadline, exactly as run_until's would.
        if (now_ < deadline) now_ = deadline;
        return false;
      }
      if (at > deadline.ns()) {
        now_ = deadline;
        return false;
      }
      pop_and_run();
    }
    return true;
  }

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
  /// Slots per callback block, and reserved up front in the other slot
  /// storage: a one-target survey world (well under this many events
  /// pending at once) allocates its scheduler storage once.
  static constexpr std::size_t kSlotsPerBlock = 32;
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  /// Per-slot bookkeeping lives apart from the fat callback blocks so the
  /// liveness checks and freelist walks stay in a dense, L1-resident
  /// vector. `live_seq` is the seq of the slot's current event, 0 when the
  /// slot is free (seq starts at 1) — cancel's proof that a token still
  /// names the event it was issued for. `heap_pos` is the index of the
  /// slot's entry in heap_ while its event is pending.
  struct SlotMeta {
    std::uint64_t live_seq{0};
    std::uint32_t next_free{kNilSlot};
    std::uint32_t heap_pos{0};
  };

  /// (timestamp, seq_slot) as one 128-bit key: a single branch-friendly
  /// compare in the sift loops instead of two data-dependent ones.
  /// Timestamps are never negative (emplace_event clamps to now() and the
  /// epoch is 0), so the uint64 reinterpretation preserves order.
  static unsigned __int128 key_of(const HeapEntry& e) {
    return (static_cast<unsigned __int128>(static_cast<std::uint64_t>(e.at_ns)) << 64) |
           e.seq_slot;
  }
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t index);
  Callback& fn_at(std::uint32_t slot) {
    return fn_blocks_[slot / kSlotsPerBlock][slot % kSlotsPerBlock];
  }
  /// True iff `token` names a pending indexed-heap event.
  bool pending_slot(std::uint64_t token) const {
    const auto slot = static_cast<std::uint32_t>(token & kSlotMask);
    const std::uint64_t seq = token >> kSlotBits;
    // seq 0 never names an event (free slots hold live_seq == 0, and real
    // seqs start at 1): the "no timer armed" sentinel 0 is never pending.
    return seq != 0 && slot < meta_.size() && meta_[slot].live_seq == seq;
  }
  /// Puts `entry` into the heap at index `hole`, whose previous entry is
  /// gone, restoring heap order and every moved slot's heap_pos.
  void heap_place(std::size_t hole, HeapEntry entry);
  /// Removes the entry at index `pos`.
  void heap_erase(std::size_t pos);

  // --- reference std::map queue (differential-testing oracle) ---
  struct Key {
    std::int64_t at_ns;
    std::uint64_t seq;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  /// Inserts into the reference map queue.
  std::uint64_t push(util::TimePoint at, Callback&& fn);
  bool pop_and_run();
  /// Sets `at` to the next pending event's time; false when none is.
  bool next_at(std::int64_t& at) const {
    if (policy_ == QueuePolicy::kReferenceMap) {
      if (map_queue_.empty()) return false;
      at = map_queue_.begin()->first.at_ns;
      return true;
    }
    if (heap_.empty()) return false;
    at = heap_.front().at_ns;
    return true;
  }

  template <class F>
  std::uint64_t emplace_event(util::TimePoint at, F&& f) {
    if (at < now_) at = now_;
    if (policy_ == QueuePolicy::kReferenceMap) return push(at, Callback{std::forward<F>(f)});
    const std::uint32_t slot = alloc_slot();
    fn_at(slot).emplace(std::forward<F>(f));
    return arm_slot(at, slot);
  }

  /// Tags `slot` with a fresh seq and returns the packed (seq, slot) word,
  /// which doubles as the token: seq starts at 1, so a token is never 0
  /// (the universal "no timer armed" sentinel), and seq never repeats, so
  /// tokens are unique for the loop's lifetime.
  std::uint64_t tag_slot(std::uint32_t slot) {
    const std::uint64_t seq = next_seq_++;
    meta_[slot].live_seq = seq;
    return (seq << kSlotBits) | slot;
  }

  /// Tags `slot` and inserts it into the heap.
  std::uint64_t arm_slot(util::TimePoint at, std::uint32_t slot) {
    ++live_;
    const std::uint64_t seq_slot = tag_slot(slot);
    heap_.emplace_back();  // grows storage; heap_place fills the new hole
    heap_place(heap_.size() - 1, HeapEntry{at.ns(), seq_slot});
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
  /// The callbacks, parallel to meta_, in fixed blocks that never move:
  /// an event runs in its own slot, which stays allocated until it returns.
  std::vector<std::unique_ptr<Callback[]>> fn_blocks_;
  std::uint32_t free_head_{kNilSlot};

  std::uint64_t next_token_{1};
  std::map<Key, std::pair<std::uint64_t, Callback>> map_queue_;
  std::map<std::uint64_t, Key> by_token_;

  std::uint64_t packet_uids_{0};
};

/// At most one pending event on an EventLoop — the one timer every
/// protocol state machine, probe run and netsim stage holds its pending
/// event in. arm() replaces the pending event with `fn` (re-keyed in place,
/// exactly as cancel-then-schedule would order it), so only the last armed
/// callback ever runs; the timer disarms before `fn` runs, so `fn` may
/// re-arm it. Destroying the timer cancels what it holds, so the loop must
/// outlive it. The scheduled event captures the timer's address: a Timer
/// never moves.
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
    token_ = loop_->reschedule(token_, delay, [this, fn = std::move(fn)]() mutable {
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
