// Per-packet striping across parallel L2 links — the physical reordering
// source the paper identifies in §IV-C. Each lane has its own queue whose
// backlog fluctuates with background cross-traffic. A packet's departure is
// delayed by the residual backlog of its lane; when a later packet lands on
// an emptier lane it can overtake an earlier one. Because queues drain at a
// constant rate, the overtaking probability falls with the inter-arrival
// gap between the two packets — producing the time-domain distribution of
// Fig. 7.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/event_loop.hpp"
#include "netsim/stage.hpp"
#include "util/random.hpp"

namespace reorder::sim {

/// Distribution of the per-packet background backlog draw. Exponential
/// gives the memoryless decay seen in Fig. 7; uniform (same mean) has a
/// hard cutoff at twice the mean — the ablation benches contrast them.
enum class BacklogModel { kExponential, kUniform };

struct StripedLinkConfig {
  std::size_t lanes{2};
  BacklogModel backlog_model{BacklogModel::kExponential};
  /// Drain rate of each lane's queue, bits per second.
  std::int64_t lane_bandwidth_bps{100'000'000};
  /// Propagation delay common to all lanes.
  util::Duration propagation{util::Duration::millis(2)};
  /// Mean of the exponentially distributed background backlog (bytes)
  /// sampled per packet per lane. Dispersion of this draw is what allows
  /// overtaking; its scale (divided by bandwidth) sets the time constant of
  /// the reordering-vs-gap decay. The default (312 bytes at 100 Mbps ==
  /// ~25 us) calibrates the decay to the paper's Fig. 7: >10% back-to-back,
  /// <2% at 50 us, ~0 at 250 us.
  double mean_backlog_bytes{312.0};
  /// Probability that a packet experiences any cross-traffic contention at
  /// all; calibrates the back-to-back reordering rate (~11%).
  double contention_probability{0.12};
};

/// Round-robin per-packet striping over `lanes` independent queues.
class StripedLink final : public Stage {
 public:
  StripedLink(EventLoop& loop, StripedLinkConfig config, util::Rng rng);

  void accept(tcpip::Packet&& pkt) override;
  std::string name() const override { return "striped-link"; }

  std::uint64_t forwarded() const { return forwarded_; }

 private:
  EventLoop& loop_;
  StripedLinkConfig config_;
  util::Rng rng_;
  std::vector<util::TimePoint> lane_busy_until_;
  std::size_t next_lane_{0};
  std::uint64_t forwarded_{0};
};

}  // namespace reorder::sim
