// The measurement process on the probe machine: sting's user-level packet
// access, bound to the simulator. It sends and receives arbitrary TCP
// segments without a kernel stack in the way, allocates ephemeral ports,
// and demultiplexes incoming packets to registered flows — the user-level
// equivalent of sting's packet filter.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "netsim/event_loop.hpp"
#include "probe/packet_factory.hpp"

namespace reorder::probe {

class ProbeHost {
 public:
  ProbeHost(sim::EventLoop& loop, tcpip::Ipv4Address address,
            std::uint16_t first_ephemeral = 40000);

  ProbeHost(const ProbeHost&) = delete;
  ProbeHost& operator=(const ProbeHost&) = delete;

  sim::EventLoop& loop() { return loop_; }
  tcpip::Ipv4Address address() const { return address_; }

  /// Wires the probe's egress; every packet send() transmits flows here.
  void set_transmit(std::function<void(tcpip::Packet&&)> transmit) {
    transmit_ = std::move(transmit);
  }

  /// Transmits one crafted packet toward the network, stamping its send
  /// time and, unless the caller pre-assigned one, a fresh uid
  /// (measurement code records the uids of its sample packets for
  /// ground-truth validation).
  void send(tcpip::Packet pkt);

  /// Network-side ingress: a packet arriving at the probe machine. One
  /// addressed elsewhere is dropped; the rest reach their handler by const
  /// ref and die here, their payload buffer going back to the pool.
  void deliver(tcpip::Packet&& pkt);

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

  std::size_t registered_flows() const { return flows_.live.size(); }
  std::size_t registered_icmp() const { return icmp_.live.size(); }

 private:
  void dispatch(const tcpip::Packet& pkt);

  /// Handlers by key. A handler may unregister or replace itself (or any
  /// other) while it runs, so while a dispatch is on the stack a removed
  /// handler is retired, kept in its map node, until the outermost
  /// dispatch returns.
  template <class Key>
  struct HandlerTable {
    using Map = std::map<Key, Handler>;
    Map live;
    std::vector<typename Map::node_type> retired;

    void set(const Key& key, Handler handler, bool dispatching);
    void remove(const Key& key, bool dispatching);
  };

  struct FlowKey {
    std::uint32_t remote_addr;
    std::uint16_t remote_port;
    std::uint16_t local_port;
    friend auto operator<=>(const FlowKey&, const FlowKey&) = default;
  };
  static FlowKey key_of(const FlowAddr& addr) {
    return FlowKey{addr.remote.value(), addr.remote_port, addr.local_port};
  }

  sim::EventLoop& loop_;
  tcpip::Ipv4Address address_;
  std::function<void(tcpip::Packet&&)> transmit_;
  std::uint16_t first_ephemeral_;
  std::map<tcpip::Ipv4Address, std::uint16_t> next_port_;  ///< per remote
  HandlerTable<FlowKey> flows_;
  HandlerTable<tcpip::Ipv4Address> icmp_;
  int dispatching_{0};  ///< dispatch() calls on the stack
};

}  // namespace reorder::probe
