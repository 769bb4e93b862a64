#include "netsim/swap_shaper.hpp"

#include <utility>

namespace reorder::sim {

SwapShaper::SwapShaper(EventLoop& loop, SwapShaperConfig config, util::Rng rng)
    : config_{config}, rng_{rng}, hold_timer_{loop} {}

void SwapShaper::accept(tcpip::Packet&& pkt) {
  ++packets_seen_;
  if (held_.has_value()) {
    // Successor arrived: emit it first, then the held packet — the pair is
    // exchanged. A held packet is never held twice.
    hold_timer_.cancel();
    tcpip::Packet first = std::move(pkt);
    tcpip::Packet second = std::move(*held_);
    held_.reset();
    ++swaps_completed_;
    emit(std::move(first));
    emit(std::move(second));
    return;
  }
  if (rng_.bernoulli(config_.swap_probability)) {
    held_ = std::move(pkt);
    hold_timer_.arm(config_.max_hold, [this] { release_held(); });
    return;
  }
  emit(std::move(pkt));
}

void SwapShaper::release_held() {
  if (!held_.has_value()) return;
  ++holds_timed_out_;
  tcpip::Packet p = std::move(*held_);
  held_.reset();
  emit(std::move(p));
}

}  // namespace reorder::sim
