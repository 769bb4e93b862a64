// The measurement process on the probe machine: owns the raw socket,
// allocates ephemeral ports, and demultiplexes incoming packets to
// registered flows — the user-level equivalent of sting's packet filter.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "probe/packet_factory.hpp"
#include "probe/raw_socket.hpp"
#include "tcpip/env.hpp"

namespace reorder::probe {

class ProbeHost {
 public:
  ProbeHost(tcpip::Environment& env, RawSocket& socket, std::uint16_t first_ephemeral = 40000);

  ProbeHost(const ProbeHost&) = delete;
  ProbeHost& operator=(const ProbeHost&) = delete;

  tcpip::Environment& env() { return env_; }
  RawSocket& socket() { return socket_; }
  tcpip::Ipv4Address address() const { return socket_.local_address(); }

  /// Builds a flow address toward `remote:port` on a fresh local port.
  /// Each remote has its own port sequence, so the ports a target's flows
  /// use (which a load balancer hashes) do not depend on what other
  /// targets of the same probe run.
  FlowAddr make_flow(tcpip::Ipv4Address remote, std::uint16_t remote_port);

  using Handler = std::function<void(const tcpip::Packet&)>;

  /// Routes incoming packets matching `addr` to `handler`. One handler per
  /// flow; re-registering replaces it.
  void register_flow(const FlowAddr& addr, Handler handler);
  void unregister_flow(const FlowAddr& addr);

  /// Routes incoming ICMP from `remote` (echo replies for the ping-burst
  /// baseline) to `handler`. One handler per remote; re-registering
  /// replaces it. ICMP from an unregistered remote is dropped.
  void register_icmp(tcpip::Ipv4Address remote, Handler handler);
  void unregister_icmp(tcpip::Ipv4Address remote);

  /// Packets that match no registered flow (e.g. stray RSTs).
  Handler unmatched_handler;

  void send(tcpip::Packet pkt) { socket_.send(std::move(pkt)); }

  std::size_t registered_flows() const { return flows_.size(); }
  std::size_t registered_icmp() const { return icmp_.size(); }

 private:
  void on_receive(const tcpip::Packet& pkt);

  struct FlowKey {
    std::uint32_t remote_addr;
    std::uint16_t remote_port;
    std::uint16_t local_port;
    friend auto operator<=>(const FlowKey&, const FlowKey&) = default;
  };
  static FlowKey key_of(const FlowAddr& addr) {
    return FlowKey{addr.remote.value(), addr.remote_port, addr.local_port};
  }

  tcpip::Environment& env_;
  RawSocket& socket_;
  std::uint16_t first_ephemeral_;
  std::map<tcpip::Ipv4Address, std::uint16_t> next_port_;  ///< per remote
  std::map<FlowKey, Handler> flows_;
  std::map<tcpip::Ipv4Address, Handler> icmp_;
};

}  // namespace reorder::probe
