#include "netsim/event_loop.hpp"

#include <algorithm>
#include <utility>

namespace reorder::sim {

EventLoop::EventLoop(QueuePolicy policy) : policy_{policy} {
  if (policy_ != QueuePolicy::kIndexedHeap) return;
  heap_.reserve(kSlotsPerBlock);
  meta_.reserve(kSlotsPerBlock);
}

// --- indexed-heap internals ------------------------------------------------

std::uint32_t EventLoop::alloc_slot() {
  if (free_head_ != kNilSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = meta_[index].next_free;
    return index;
  }
  const auto index = static_cast<std::uint32_t>(meta_.size());
  if (index % kSlotsPerBlock == 0) {
    fn_blocks_.push_back(std::make_unique<Callback[]>(kSlotsPerBlock));
  }
  meta_.emplace_back();
  return index;
}

void EventLoop::free_slot(std::uint32_t index) {
  fn_at(index).reset();
  SlotMeta& meta = meta_[index];
  meta.live_seq = 0;  // invalidates every token naming this slot
  meta.next_free = free_head_;
  free_head_ = index;
}

// Walks the hole down to a leaf along min-children without comparing
// against `entry` (a re-placed tail entry is near-maximal, so the textbook
// per-level comparison almost never terminates early), then bubbles
// `entry` up from there — usually zero or one step. Both directions move
// the hole instead of swapping entries: one store per level rather than
// three, plus the moved slot's heap_pos.
void EventLoop::heap_place(std::size_t hole, HeapEntry entry) {
  HeapEntry* const heap = heap_.data();
  SlotMeta* const meta = meta_.data();
  const std::size_t n = heap_.size();
  const auto fill = [heap, meta](std::size_t at, const HeapEntry& e) {
    heap[at] = e;
    meta[e.seq_slot & kSlotMask].heap_pos = static_cast<std::uint32_t>(at);
  };
  for (;;) {
    const std::size_t first_child = 4 * hole + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    auto best_key = key_of(heap[first_child]);
    const std::size_t last_child = std::min(first_child + 4, n);
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      const auto key = key_of(heap[c]);
      best = key < best_key ? c : best;
      best_key = key < best_key ? key : best_key;
    }
    fill(hole, heap[best]);
    hole = best;
  }
  const auto key = key_of(entry);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (key_of(heap[parent]) <= key) break;
    fill(hole, heap[parent]);
    hole = parent;
  }
  fill(hole, entry);
}

void EventLoop::heap_erase(std::size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) heap_place(pos, last);
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
  if (!pending_slot(token)) return;
  const auto slot = static_cast<std::uint32_t>(token & kSlotMask);
  heap_erase(meta_[slot].heap_pos);
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
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  heap_erase(0);
  const auto slot = static_cast<std::uint32_t>(top.seq_slot & kSlotMask);
  now_ = util::TimePoint::from_ns(top.at_ns);
  // No longer pending (a cancel of its token is a no-op), but the slot is
  // freed only once the callback, which runs in place, returns.
  meta_[slot].live_seq = 0;
  --live_;
  ++executed_;
  if (hook_) hook_(now_, top.seq_slot >> kSlotBits);
  fn_at(slot)();
  free_slot(slot);
  return true;
}

std::uint64_t EventLoop::run() {
  std::uint64_t n = 0;
  while (pop_and_run()) ++n;
  return n;
}

std::uint64_t EventLoop::run_until(util::TimePoint deadline) {
  std::uint64_t n = 0;
  std::int64_t at = 0;
  while (next_at(at) && at <= deadline.ns()) {
    if (pop_and_run()) ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

}  // namespace reorder::sim
