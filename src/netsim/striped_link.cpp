#include "netsim/striped_link.hpp"

#include <utility>

namespace reorder::sim {

StripedLink::StripedLink(EventLoop& loop, StripedLinkConfig config, util::Rng rng)
    : loop_{loop}, config_{config}, rng_{rng}, lane_busy_until_(config.lanes) {}

void StripedLink::accept(tcpip::Packet&& pkt) {
  const std::size_t lane = next_lane_;
  next_lane_ = (next_lane_ + 1) % config_.lanes;

  const util::TimePoint now = loop_.now();
  // Residual backlog from our own traffic on this lane...
  util::TimePoint start = lane_busy_until_[lane] > now ? lane_busy_until_[lane] : now;
  // ...plus a fresh draw of background cross-traffic queued ahead of us.
  if (rng_.bernoulli(config_.contention_probability)) {
    const double backlog_bytes =
        config_.backlog_model == BacklogModel::kExponential
            ? rng_.exponential(config_.mean_backlog_bytes)
            : rng_.uniform(0.0, 2.0 * config_.mean_backlog_bytes);
    const double backlog_seconds =
        backlog_bytes * 8.0 / static_cast<double>(config_.lane_bandwidth_bps);
    start += util::Duration::from_seconds_f(backlog_seconds);
  }
  const double ser_seconds = static_cast<double>(pkt.wire_size()) * 8.0 /
                             static_cast<double>(config_.lane_bandwidth_bps);
  const util::TimePoint done = start + util::Duration::from_seconds_f(ser_seconds);
  lane_busy_until_[lane] = done;

  loop_.schedule_at(done + config_.propagation, [this, p = std::move(pkt)]() mutable {
    ++forwarded_;
    emit(std::move(p));
  });
}

}  // namespace reorder::sim
