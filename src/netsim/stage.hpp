// Unidirectional packet-processing stages. A Path composes stages into a
// chain; each stage transforms timing/ordering/survival of the packets that
// flow through it. All reordering processes in the simulator are stages.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <utility>

#include "tcpip/packet.hpp"

namespace reorder::sim {

/// Downstream consumer of packets.
using PacketSink = std::function<void(tcpip::Packet&&)>;

/// Base class for path elements. Stages are connected in a fixed order at
/// topology-build time and are not thread-safe (the simulator is
/// single-threaded by design).
class Stage {
 public:
  virtual ~Stage() = default;

  /// Ingests one packet. Implementations either emit() it (possibly later
  /// via the event loop) or drop it. Taken by rvalue reference, so a
  /// packet crossing a chain of stages is moved once per stage that keeps
  /// it, not once per call.
  virtual void accept(tcpip::Packet&& pkt) = 0;

  /// Wires a terminal sink downstream; must be called before traffic
  /// flows.
  void connect(PacketSink next) {
    next_stage_ = nullptr;
    next_ = std::move(next);
  }

  /// Wires the next stage of a chain: emit() calls its accept() directly.
  void connect(Stage& next) {
    next_stage_ = &next;
    next_ = nullptr;
  }

  /// Diagnostic name for topology dumps.
  virtual std::string name() const = 0;

 protected:
  /// Forwards a packet downstream. No-op when unconnected (topology under
  /// construction), which keeps partially built paths safe.
  void emit(tcpip::Packet&& pkt) {
    if (next_stage_ != nullptr) {
      next_stage_->accept(std::move(pkt));
    } else if (next_) {
      next_(std::move(pkt));
    }
  }

 private:
  Stage* next_stage_{nullptr};
  PacketSink next_;
};

/// Packets in flight through a stage that delivers them in accept order.
/// List nodes never move, and a delivered packet's node is spliced onto a
/// spare list for the next push, so a steady flow allocates nothing once
/// the stage has held its most packets at once.
class PacketFifo {
 public:
  /// Packets waiting; the one being delivered is no longer among them.
  std::size_t size() const { return waiting_; }

  void push(tcpip::Packet&& pkt) {
    if (spare_.empty()) {
      queue_.push_back(std::move(pkt));
    } else {
      spare_.front() = std::move(pkt);
      queue_.splice(queue_.end(), spare_, spare_.begin());
    }
    ++waiting_;
  }

  /// Hands the oldest packet (the queue must not be empty) to `deliver`
  /// from its node: a push meanwhile (the stage's downstream sending
  /// straight back into the stage) queues behind it.
  template <class F>
  void pop(F&& deliver) {
    --waiting_;
    deliver(std::move(queue_.front()));
    spare_.splice(spare_.begin(), queue_, queue_.begin());
  }

 private:
  std::list<tcpip::Packet> queue_;  ///< oldest first
  std::list<tcpip::Packet> spare_;
  std::size_t waiting_{0};
};

}  // namespace reorder::sim
