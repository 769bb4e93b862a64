// NIC interrupt coalescing as a reordering process (arXiv 1008.4931):
// the receive path buffers frames and delivers them in bursts — on a
// frame-count threshold or a coalescing-window timer — and segmentation
// offload's per-burst reassembly can locally shuffle the frames it
// hands up. Packets never escape their burst (unlike striping, the
// displacement is bounded by the burst length), which is exactly the
// bursty, batched, locally-shuffled arrival shape the line-rate ingest
// path must chew through.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/event_loop.hpp"
#include "netsim/stage.hpp"
#include "util/random.hpp"

namespace reorder::sim {

struct InterruptCoalescerConfig {
  /// Deliver when this many frames are buffered.
  std::size_t max_frames{8};
  /// Deliver this long after the first buffered frame (the coalescing
  /// window), so a lull cannot wedge the tail of a burst.
  util::Duration window{util::Duration::micros(200)};
  /// Probability of swapping each adjacent pair within a delivered burst
  /// (a swapped pair is skipped, like the dummynet shaper's process).
  double shuffle_probability{0.25};
};

/// Buffers frames and emits them as locally-shuffled bursts.
class InterruptCoalescer final : public Stage {
 public:
  InterruptCoalescer(EventLoop& loop, InterruptCoalescerConfig config, util::Rng rng);

  void accept(tcpip::Packet&& pkt) override;
  std::string name() const override { return "interrupt-coalescer"; }

  std::uint64_t frames_seen() const { return frames_seen_; }
  std::uint64_t bursts_flushed() const { return bursts_flushed_; }
  std::uint64_t swaps_applied() const { return swaps_applied_; }
  std::uint64_t max_burst_frames() const { return max_burst_frames_; }

 private:
  void flush();

  InterruptCoalescerConfig config_;
  util::Rng rng_;
  std::vector<tcpip::Packet> held_;
  Timer window_timer_;  ///< flushes the open window when it closes
  std::uint64_t frames_seen_{0};
  std::uint64_t bursts_flushed_{0};
  std::uint64_t swaps_applied_{0};
  std::uint64_t max_burst_frames_{0};
};

}  // namespace reorder::sim
