#include "tcpip/host.hpp"

#include <utility>

#include "util/buffer_pool.hpp"

namespace reorder::tcpip {

std::uint8_t object_byte(std::size_t index) {
  return static_cast<std::uint8_t>((index * 31 + 7) & 0xff);
}

std::vector<std::uint8_t> make_object(std::size_t size) {
  std::vector<std::uint8_t> out(size);
  for (std::size_t i = 0; i < size; ++i) out[i] = object_byte(i);
  return out;
}

Host::Host(sim::EventLoop& loop, HostConfig config)
    : loop_{loop},
      config_{std::move(config)},
      ipid_{make_ipid_generator(config_.ipid_policy, config_.seed * 7919 + 13,
                                config_.ipid_initial)},
      rng_{config_.seed} {}

TcpEndpoint* Host::find_endpoint(const ConnKey& key) {
  const auto it = endpoints_.find(key);
  return it == endpoints_.end() ? nullptr : &*it->second;
}

void Host::receive(const Packet& pkt) {
  if (pkt.ip.dst != config_.address) return;  // not ours; hosts do not route
  if (pkt.ip.protocol == IpProto::kIcmp) {
    ++counters_.packets_in;
    handle_icmp(pkt);
    return;
  }
  if (pkt.ip.protocol != IpProto::kTcp) return;
  ++counters_.packets_in;

  const ConnKey key{pkt.tcp.dst_port, pkt.ip.src, pkt.tcp.src_port};
  if (auto* ep = find_endpoint(key)) {
    ep->on_segment(pkt);
    return;
  }
  if (pkt.tcp.is_syn() && !pkt.tcp.is_ack() && config_.listeners.contains(pkt.tcp.dst_port)) {
    // Flaky-host behaviour: the opening SYN silently vanishes (no RST —
    // the prober can only wait it out and retransmit).
    if (config_.syn_drop_probability > 0.0 && rng_.bernoulli(config_.syn_drop_probability)) {
      ++counters_.syn_dropped;
      return;
    }
    accept_connection(pkt);
    return;
  }
  if (config_.rst_closed_ports && !pkt.tcp.is_rst()) {
    ++counters_.rst_closed_port;
    send_rst_for(pkt);
  }
}

void Host::handle_icmp(const Packet& pkt) {
  if (!config_.respond_to_ping) return;
  if (!pkt.icmp.has_value() || pkt.icmp->type != IcmpType::kEchoRequest) return;
  if (config_.ping_rate_limit_per_sec > 0) {
    const util::TimePoint now = loop_.now();
    if ((now - ping_window_start_) >= util::Duration::seconds(1)) {
      ping_window_start_ = now;
      ping_window_count_ = 0;
    }
    if (ping_window_count_ >= config_.ping_rate_limit_per_sec) {
      ++counters_.echo_rate_limited;
      return;
    }
    ++ping_window_count_;
  }
  Packet reply;
  reply.ip.src = config_.address;
  reply.ip.dst = pkt.ip.src;
  reply.ip.protocol = IpProto::kIcmp;
  reply.ip.identification = ipid_->next(pkt.ip.src);
  reply.icmp = IcmpEcho{IcmpType::kEchoReply, pkt.icmp->identifier, pkt.icmp->sequence};
  // Echo semantics: the payload is reflected (into a recycled buffer).
  reply.payload = util::BufferPool::global().acquire(pkt.payload.size());
  reply.payload.assign(pkt.payload.begin(), pkt.payload.end());
  reply.uid = loop_.next_packet_uid();
  reply.first_sent = loop_.now();
  ++counters_.echo_replies;
  ++counters_.packets_out;
  if (transmit_) transmit_(std::move(reply));
}

void Host::accept_connection(const Packet& pkt) {
  const ConnKey key{pkt.tcp.dst_port, pkt.ip.src, pkt.tcp.src_port};
  // Keep the ISS well below 2^31 so a connection's sequence space never
  // wraps mid-test (documented simulator simplification).
  const auto iss = static_cast<std::uint32_t>(rng_.below(1u << 30));
  // The endpoint lives in its map node, whose key outlives it; capturing
  // that key by address keeps the sender within std::function's local
  // buffer.
  EndpointMap::iterator node;
  if (spare_nodes_.empty()) {
    node = endpoints_.try_emplace(key).first;
  } else {
    EndpointMap::node_type spare = std::move(spare_nodes_.back());
    spare_nodes_.pop_back();
    spare.key() = key;
    node = endpoints_.insert(std::move(spare)).position;
  }
  TcpEndpoint& ep = node->second.emplace(
      loop_, config_.behavior, key, iss,
      [this, node_key = &node->first](TcpHeader h, std::vector<std::uint8_t> payload) {
        send_segment(*node_key, h, std::move(payload));
      });
  attach_app(ep, config_.listeners.at(pkt.tcp.dst_port));
  ++counters_.connections_accepted;
  ep.on_segment(pkt);
}

void Host::attach_app(TcpEndpoint& ep, const ListenerConfig& listener) {
  TcpEndpoint* self = &ep;
  switch (listener.app) {
    case AppKind::kDiscard:
      // Consume silently; close our side when the peer closes.
      self->on_remote_close = [self] { self->close(); };
      break;
    case AppKind::kEcho:
      self->on_data = [self](std::span<const std::uint8_t> data) { self->send_data(data); };
      self->on_remote_close = [self] { self->close(); };
      break;
    case AppKind::kObjectServer: {
      // Serve the object once the first request bytes arrive, then close —
      // the same shape as an HTTP GET of a root object.
      const std::size_t size = listener.object_size;
      auto served = std::make_shared<bool>(false);
      self->on_data = [self, size, served](std::span<const std::uint8_t>) {
        if (*served) return;
        *served = true;
        self->send_data(make_object(size));
        self->close();
      };
      self->on_remote_close = [self, served] {
        if (!*served) self->close();
      };
      break;
    }
  }
  self->on_closed = [this, self] { schedule_reap(self->key()); };
}

void Host::schedule_reap(const ConnKey& key) {
  // Destroying the endpoint inside one of its own callbacks would be a
  // use-after-free; defer to the next event-loop turn.
  loop_.schedule(util::Duration::nanos(0), [this, key] {
    EndpointMap::node_type node = endpoints_.extract(key);
    if (node.empty()) return;
    node.mapped().reset();
    spare_nodes_.push_back(std::move(node));
  });
}

void Host::send_segment(const ConnKey& key, TcpHeader header, std::vector<std::uint8_t> payload) {
  Packet pkt;
  pkt.ip.src = config_.address;
  pkt.ip.dst = key.remote_addr;
  pkt.ip.protocol = IpProto::kTcp;
  pkt.ip.identification = ipid_->next(key.remote_addr);
  pkt.ip.dont_fragment = config_.ipid_policy == IpidPolicy::kConstantZero;
  pkt.tcp = header;
  pkt.payload = std::move(payload);
  pkt.uid = loop_.next_packet_uid();
  pkt.first_sent = loop_.now();
  ++counters_.packets_out;
  if (transmit_) transmit_(std::move(pkt));
}

void Host::send_rst_for(const Packet& pkt) {
  // RFC 793 reset generation for a non-existent connection.
  Packet rst;
  rst.ip.src = config_.address;
  rst.ip.dst = pkt.ip.src;
  rst.ip.protocol = IpProto::kTcp;
  rst.ip.identification = ipid_->next(pkt.ip.src);
  rst.tcp.src_port = pkt.tcp.dst_port;
  rst.tcp.dst_port = pkt.tcp.src_port;
  rst.tcp.window = 0;
  if (pkt.tcp.is_ack()) {
    rst.tcp.flags = kRst;
    rst.tcp.seq = pkt.tcp.ack;
  } else {
    rst.tcp.flags = kRst | kAck;
    rst.tcp.seq = 0;
    rst.tcp.ack = pkt.tcp.seq + pkt.seq_len();
  }
  rst.uid = loop_.next_packet_uid();
  rst.first_sent = loop_.now();
  ++counters_.packets_out;
  if (transmit_) transmit_(std::move(rst));
}

}  // namespace reorder::tcpip
