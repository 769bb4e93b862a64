// Basic path elements: a store-and-forward link (bandwidth + propagation +
// drop-tail queue), a fixed delay, uniform jitter, and Bernoulli loss.
#pragma once

#include <cstdint>

#include "netsim/event_loop.hpp"
#include "netsim/stage.hpp"
#include "util/random.hpp"
#include "util/time.hpp"

namespace reorder::sim {

/// Parameters for a point-to-point link.
struct LinkParams {
  /// Serialization rate in bits per second; 0 means infinitely fast.
  std::int64_t bandwidth_bps{100'000'000};
  util::Duration propagation{util::Duration::millis(5)};
  /// Drop-tail bound on packets queued awaiting serialization.
  std::size_t queue_limit_packets{256};
};

/// FIFO store-and-forward link. Never reorders; contributes serialization
/// delay (the effect behind the paper's §IV-C observation that 1500-byte
/// data packets see less reordering than 40-byte probe packets).
///
/// A link delivers in accept order: its busy time never falls, its
/// propagation is constant, and the loop breaks time ties by seq. So it
/// holds its in-flight packets itself, and each delivery event captures
/// only the link and takes the oldest.
class LinkStage final : public Stage {
 public:
  LinkStage(EventLoop& loop, LinkParams params);

  void accept(tcpip::Packet&& pkt) override;
  std::string name() const override { return "link"; }

  /// Serialization time for `bytes` at this link's bandwidth.
  util::Duration serialization_time(std::size_t bytes) const;

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  void deliver();

  EventLoop& loop_;
  LinkParams params_;
  util::TimePoint busy_until_;
  PacketFifo in_flight_;
  std::uint64_t forwarded_{0};
  std::uint64_t dropped_{0};
};

/// Adds a constant delay; order-preserving, so, like LinkStage, it holds
/// its in-flight packets itself.
class DelayStage final : public Stage {
 public:
  DelayStage(EventLoop& loop, util::Duration delay) : loop_{loop}, delay_{delay} {}
  void accept(tcpip::Packet&& pkt) override;
  std::string name() const override { return "delay"; }

 private:
  EventLoop& loop_;
  util::Duration delay_;
  PacketFifo in_flight_;
};

/// Adds an independent uniform random delay in [lo, hi] per packet. This is
/// itself a (time-correlated) reordering process: two packets Δt apart swap
/// when the first draws a delay more than Δt larger than the second.
class JitterStage final : public Stage {
 public:
  JitterStage(EventLoop& loop, util::Duration lo, util::Duration hi, util::Rng rng)
      : loop_{loop}, lo_{lo}, hi_{hi}, rng_{rng} {}
  void accept(tcpip::Packet&& pkt) override;
  std::string name() const override { return "jitter"; }

 private:
  EventLoop& loop_;
  util::Duration lo_;
  util::Duration hi_;
  util::Rng rng_;
};

/// Drops each packet independently with probability p.
class LossStage final : public Stage {
 public:
  LossStage(double p, util::Rng rng) : p_{p}, rng_{rng} {}
  void accept(tcpip::Packet&& pkt) override;
  std::string name() const override { return "loss"; }

  std::uint64_t dropped() const { return dropped_; }

 private:
  double p_;
  util::Rng rng_;
  std::uint64_t dropped_{0};
};

}  // namespace reorder::sim
