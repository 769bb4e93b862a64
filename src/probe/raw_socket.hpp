// The probe's packet access primitive. The paper implements its tests on
// top of sting's BPF/firewall trick: a user-level process that can send
// and receive arbitrary TCP segments without the kernel stack interfering.
// RawSocket is that capability as an interface; SimRawSocket binds it to
// the simulator. A real libpcap/raw-socket implementation would slot in
// behind the same interface.
#pragma once

#include <cstdint>
#include <functional>

#include "tcpip/env.hpp"
#include "tcpip/packet.hpp"

namespace reorder::probe {

/// Send/receive arbitrary IPv4/TCP packets as the probe host.
class RawSocket {
 public:
  virtual ~RawSocket() = default;

  /// Transmits one crafted packet toward the network.
  virtual void send(tcpip::Packet pkt) = 0;

  /// The probe host's address (source of crafted packets).
  virtual tcpip::Ipv4Address local_address() const = 0;

  /// Installs the ingress handler; every packet addressed to the probe
  /// host is delivered here. Only one handler (the ProbeHost demux).
  void set_receive_handler(std::function<void(const tcpip::Packet&)> handler) {
    handler_ = std::move(handler);
  }

  std::uint64_t packets_sent() const { return sent_; }
  std::uint64_t packets_received() const { return received_; }

 protected:
  void dispatch(const tcpip::Packet& pkt) {
    ++received_;
    if (handler_) handler_(pkt);
  }
  std::uint64_t sent_{0};

 private:
  std::function<void(const tcpip::Packet&)> handler_;
  std::uint64_t received_{0};
};

/// RawSocket bound to a simulated network. Wire the egress with
/// set_transmit() (typically a Path entry) and feed the reverse path's
/// terminal sink into deliver().
class SimRawSocket final : public RawSocket {
 public:
  SimRawSocket(tcpip::Environment& env, tcpip::Ipv4Address local) : env_{env}, local_{local} {}

  void set_transmit(std::function<void(tcpip::Packet)> transmit) {
    transmit_ = std::move(transmit);
  }

  void send(tcpip::Packet pkt) override {
    // Callers may pre-assign a uid (measurement code records the uids of
    // its sample packets for ground-truth validation).
    if (pkt.uid == 0) pkt.uid = env_.next_packet_uid();
    pkt.first_sent = env_.now();
    ++sent_;
    if (transmit_) transmit_(std::move(pkt));
  }

  tcpip::Ipv4Address local_address() const override { return local_; }

  /// Network-side ingress: packets arriving at the probe host. The packet
  /// dies here (handlers see it by const ref); its payload buffer goes
  /// back to the pool.
  void deliver(tcpip::Packet pkt) {
    if (pkt.ip.dst != local_) return;
    dispatch(pkt);
    tcpip::recycle(std::move(pkt));
  }

 private:
  tcpip::Environment& env_;
  tcpip::Ipv4Address local_;
  std::function<void(tcpip::Packet)> transmit_;
};

}  // namespace reorder::probe
