#include "probe/probe_host.hpp"

namespace reorder::probe {

ProbeHost::ProbeHost(tcpip::Environment& env, RawSocket& socket, std::uint16_t first_ephemeral)
    : env_{env}, socket_{socket}, first_ephemeral_{first_ephemeral} {
  socket_.set_receive_handler([this](const tcpip::Packet& pkt) { on_receive(pkt); });
}

FlowAddr ProbeHost::make_flow(tcpip::Ipv4Address remote, std::uint16_t remote_port) {
  FlowAddr addr;
  addr.local = socket_.local_address();
  std::uint16_t& next_port = next_port_.try_emplace(remote, first_ephemeral_).first->second;
  addr.local_port = next_port++;
  if (next_port == 0) next_port = 40000;  // wrapped the ephemeral range
  addr.remote = remote;
  addr.remote_port = remote_port;
  return addr;
}

void ProbeHost::register_flow(const FlowAddr& addr, Handler handler) {
  flows_[key_of(addr)] = std::move(handler);
}

void ProbeHost::unregister_flow(const FlowAddr& addr) { flows_.erase(key_of(addr)); }

void ProbeHost::register_icmp(tcpip::Ipv4Address remote, Handler handler) {
  icmp_[remote] = std::move(handler);
}

void ProbeHost::unregister_icmp(tcpip::Ipv4Address remote) { icmp_.erase(remote); }

void ProbeHost::on_receive(const tcpip::Packet& pkt) {
  if (pkt.is_icmp()) {
    const auto it = icmp_.find(pkt.ip.src);
    if (it != icmp_.end()) {
      // Copy the handler: it may unregister (and destroy) itself mid-call.
      auto handler = it->second;
      handler(pkt);
    }
    return;
  }
  const FlowKey key{pkt.ip.src.value(), pkt.tcp.src_port, pkt.tcp.dst_port};
  const auto it = flows_.find(key);
  if (it != flows_.end()) {
    // Copy the handler: it may unregister (and destroy) itself mid-call.
    auto handler = it->second;
    handler(pkt);
    return;
  }
  if (unmatched_handler) unmatched_handler(pkt);
}

}  // namespace reorder::probe
