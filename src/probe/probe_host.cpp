#include "probe/probe_host.hpp"

namespace reorder::probe {

ProbeHost::ProbeHost(sim::EventLoop& loop, tcpip::Ipv4Address address,
                     std::uint16_t first_ephemeral)
    : loop_{loop}, address_{address}, first_ephemeral_{first_ephemeral} {}

void ProbeHost::send(tcpip::Packet pkt) {
  if (pkt.uid == 0) pkt.uid = loop_.next_packet_uid();
  pkt.first_sent = loop_.now();
  if (transmit_) transmit_(std::move(pkt));
}

void ProbeHost::deliver(tcpip::Packet&& pkt) {
  if (pkt.ip.dst != address_) return;
  dispatch(pkt);
  tcpip::recycle(std::move(pkt));
}

FlowAddr ProbeHost::make_flow(tcpip::Ipv4Address remote, std::uint16_t remote_port) {
  FlowAddr addr;
  addr.local = address_;
  std::uint16_t& next_port = next_port_.try_emplace(remote, first_ephemeral_).first->second;
  addr.local_port = next_port++;
  if (next_port == 0) next_port = 40000;  // wrapped the ephemeral range
  addr.remote = remote;
  addr.remote_port = remote_port;
  return addr;
}

void ProbeHost::register_flow(const FlowAddr& addr, Handler handler) {
  flows_.set(key_of(addr), std::move(handler), dispatching_ > 0);
}

void ProbeHost::unregister_flow(const FlowAddr& addr) {
  flows_.remove(key_of(addr), dispatching_ > 0);
}

void ProbeHost::register_icmp(tcpip::Ipv4Address remote, Handler handler) {
  icmp_.set(remote, std::move(handler), dispatching_ > 0);
}

void ProbeHost::unregister_icmp(tcpip::Ipv4Address remote) {
  icmp_.remove(remote, dispatching_ > 0);
}

void ProbeHost::dispatch(const tcpip::Packet& pkt) {
  ++dispatching_;
  if (pkt.is_icmp()) {
    const auto it = icmp_.live.find(pkt.ip.src);
    if (it != icmp_.live.end()) it->second(pkt);
  } else {
    const FlowKey key{pkt.ip.src.value(), pkt.tcp.src_port, pkt.tcp.dst_port};
    const auto it = flows_.live.find(key);
    if (it != flows_.live.end()) {
      it->second(pkt);
    } else if (unmatched_handler) {
      unmatched_handler(pkt);
    }
  }
  if (--dispatching_ == 0) {
    flows_.retired.clear();
    icmp_.retired.clear();
  }
}

template <class Key>
void ProbeHost::HandlerTable<Key>::set(const Key& key, Handler handler, bool dispatching) {
  const auto it = live.find(key);
  if (it != live.end() && !dispatching) {
    it->second = std::move(handler);
    return;
  }
  if (it != live.end()) retired.push_back(live.extract(it));
  live.emplace(key, std::move(handler));
}

template <class Key>
void ProbeHost::HandlerTable<Key>::remove(const Key& key, bool dispatching) {
  const auto it = live.find(key);
  if (it == live.end()) return;
  if (dispatching) {
    retired.push_back(live.extract(it));
  } else {
    live.erase(it);
  }
}

}  // namespace reorder::probe
