// The dummynet modification from the paper's controlled validation
// (§IV-A): "swap adjacent packets according to a specified probability
// distribution". With probability p an arriving packet is held back and
// released immediately after the next packet passes, i.e. the adjacent
// pair is exchanged. A bounded hold timer releases a held packet if no
// successor arrives (end of a burst), so the shaper cannot wedge a flow.
#pragma once

#include <cstdint>
#include <optional>

#include "netsim/event_loop.hpp"
#include "netsim/stage.hpp"
#include "util/random.hpp"

namespace reorder::sim {

struct SwapShaperConfig {
  /// Probability that an arriving packet is swapped with its successor.
  double swap_probability{0.0};
  /// Maximum time a packet may be held waiting for a successor.
  util::Duration max_hold{util::Duration::millis(50)};
};

/// Swaps adjacent packets with a configured probability.
class SwapShaper final : public Stage {
 public:
  SwapShaper(EventLoop& loop, SwapShaperConfig config, util::Rng rng);

  void accept(tcpip::Packet&& pkt) override;
  std::string name() const override { return "swap-shaper"; }

  /// Changes the swap probability on the fly (used by the time-varying
  /// reordering process in the Fig. 6 experiment).
  void set_swap_probability(double p) { config_.swap_probability = p; }
  double swap_probability() const { return config_.swap_probability; }

  std::uint64_t swaps_completed() const { return swaps_completed_; }
  std::uint64_t holds_timed_out() const { return holds_timed_out_; }
  std::uint64_t packets_seen() const { return packets_seen_; }

 private:
  void release_held();

  SwapShaperConfig config_;
  util::Rng rng_;
  std::optional<tcpip::Packet> held_;
  Timer hold_timer_;  ///< releases the held packet if no successor comes
  std::uint64_t swaps_completed_{0};
  std::uint64_t holds_timed_out_{0};
  std::uint64_t packets_seen_{0};
};

}  // namespace reorder::sim
