#include "netsim/coalescer.hpp"

#include <algorithm>
#include <utility>

namespace reorder::sim {

InterruptCoalescer::InterruptCoalescer(EventLoop& loop, InterruptCoalescerConfig config,
                                       util::Rng rng)
    : config_{config}, rng_{rng}, window_timer_{loop} {
  if (config_.max_frames == 0) config_.max_frames = 1;
  held_.reserve(config_.max_frames);
}

void InterruptCoalescer::accept(tcpip::Packet&& pkt) {
  ++frames_seen_;
  held_.push_back(std::move(pkt));
  if (held_.size() >= config_.max_frames) {
    flush();
    return;
  }
  if (held_.size() == 1) window_timer_.arm(config_.window, [this] { flush(); });
}

void InterruptCoalescer::flush() {
  window_timer_.cancel();
  if (held_.empty()) return;
  // Intra-burst local shuffle: each adjacent pair swaps independently and
  // a swapped pair is skipped, so no frame moves more than one position —
  // bounded displacement, the coalescing signature.
  for (std::size_t i = 0; i + 1 < held_.size();) {
    if (rng_.bernoulli(config_.shuffle_probability)) {
      std::swap(held_[i], held_[i + 1]);
      ++swaps_applied_;
      i += 2;
    } else {
      ++i;
    }
  }
  ++bursts_flushed_;
  max_burst_frames_ = std::max<std::uint64_t>(max_burst_frames_, held_.size());
  std::vector<tcpip::Packet> burst;
  burst.swap(held_);  // emit() may re-enter accept() downstream
  for (auto& frame : burst) emit(std::move(frame));
}

}  // namespace reorder::sim
