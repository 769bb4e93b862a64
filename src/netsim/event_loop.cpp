#include "netsim/event_loop.hpp"

#include <algorithm>
#include <utility>

namespace reorder::sim {

// --- indexed-heap internals ------------------------------------------------

std::uint32_t EventLoop::alloc_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = meta_[index].next_free;
    return index;
  }
  meta_.emplace_back();
  fns_.emplace_back();
  return static_cast<std::uint32_t>(meta_.size() - 1);
}

void EventLoop::free_slot(std::uint32_t index) {
  fns_[index].reset();
  SlotMeta& meta = meta_[index];
  meta.live_seq = 0;  // invalidates any heap entry still pointing here
  meta.next_free = free_head_;
  free_head_ = index;
}

// Both sift directions move a hole instead of swapping entries: one store
// per level rather than three.
void EventLoop::heap_push(HeapEntry entry) {
  heap_.push_back(entry);  // grows storage; the value is overwritten below
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!entry_less(entry, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

EventLoop::HeapEntry EventLoop::heap_pop_top() {
  const HeapEntry top = heap_.front();
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Bottom-up sift: walk the hole to a leaf along min-children without
  // comparing against `last` (the tail entry is near-maximal, so the
  // textbook per-level comparison almost never terminates early), then
  // bubble `last` up from the leaf — usually zero or one step.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first_child = 4 * hole + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (entry_less(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  const auto key = key_of(last);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (key_of(heap_[parent]) <= key) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = last;
  return top;
}

void EventLoop::purge_top() {
  while (!heap_.empty() &&
         meta_[heap_.front().seq_slot & kSlotMask].live_seq !=
             (heap_.front().seq_slot >> kSlotBits)) {
    heap_pop_top();
  }
}

// --- scheduling ------------------------------------------------------------

std::uint64_t EventLoop::push(util::TimePoint at, Callback&& fn) {
  const Key key{at.ns(), next_seq_++};
  ++live_;
  const std::uint64_t token = next_token_++;
  map_queue_.emplace(key, std::make_pair(token, std::move(fn)));
  by_token_.emplace(token, key);
  return token;
}

void EventLoop::cancel(std::uint64_t token) {
  if (policy_ == QueuePolicy::kReferenceMap) {
    const auto it = by_token_.find(token);
    if (it == by_token_.end()) return;
    map_queue_.erase(it->second);
    by_token_.erase(it);
    --live_;
    return;
  }
  const auto slot = static_cast<std::uint32_t>(token & kSlotMask);
  const std::uint64_t seq = token >> kSlotBits;
  // seq 0 never names an event (free slots hold live_seq == 0, and real
  // seqs start at 1) — without this guard, cancelling the "no timer
  // armed" sentinel 0 would double-free slot 0.
  if (seq == 0 || slot >= meta_.size() || meta_[slot].live_seq != seq) return;
  // Lazy cancellation: release the capture and retire the slot now; the
  // heap entry goes stale (live_seq mismatch) and is skipped on pop.
  free_slot(slot);
  --live_;
}

bool EventLoop::pop_and_run() {
  if (policy_ == QueuePolicy::kReferenceMap) {
    if (map_queue_.empty()) return false;
    auto it = map_queue_.begin();
    now_ = util::TimePoint::from_ns(it->first.at_ns);
    const std::uint64_t seq = it->first.seq;
    auto [token, fn] = std::move(it->second);
    by_token_.erase(token);
    map_queue_.erase(it);
    --live_;
    ++executed_;
    if (hook_) hook_(now_, seq);
    fn();
    return true;
  }
  for (;;) {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_pop_top();
    const auto slot = static_cast<std::uint32_t>(top.seq_slot & kSlotMask);
    const std::uint64_t seq = top.seq_slot >> kSlotBits;
    if (meta_[slot].live_seq != seq) continue;  // lazily cancelled
    now_ = util::TimePoint::from_ns(top.at_ns);
    Callback fn = std::move(fns_[slot]);
    free_slot(slot);
    --live_;
    ++executed_;
    if (hook_) hook_(now_, seq);
    fn();
    return true;
  }
}

std::uint64_t EventLoop::run() {
  std::uint64_t n = 0;
  while (pop_and_run()) ++n;
  return n;
}

std::uint64_t EventLoop::run_until(util::TimePoint deadline) {
  std::uint64_t n = 0;
  for (;;) {
    std::int64_t next_at;
    if (policy_ == QueuePolicy::kReferenceMap) {
      if (map_queue_.empty()) break;
      next_at = map_queue_.begin()->first.at_ns;
    } else {
      purge_top();
      if (heap_.empty()) break;
      next_at = heap_.front().at_ns;
    }
    if (next_at > deadline.ns()) break;
    if (pop_and_run()) ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool EventLoop::run_while(util::TimePoint deadline, const std::function<bool()>& keep_going) {
  while (keep_going()) {
    std::int64_t next_at;
    if (policy_ == QueuePolicy::kReferenceMap) {
      if (map_queue_.empty()) {
        // Queue drained before the deadline: the clock still advances to
        // the deadline, exactly as run_until's would.
        if (now_ < deadline) now_ = deadline;
        return false;
      }
      next_at = map_queue_.begin()->first.at_ns;
    } else {
      purge_top();
      if (heap_.empty()) {
        if (now_ < deadline) now_ = deadline;
        return false;
      }
      next_at = heap_.front().at_ns;
    }
    if (next_at > deadline.ns()) {
      now_ = deadline;
      return false;
    }
    pop_and_run();
  }
  return true;
}

}  // namespace reorder::sim
