// A simulated TCP/IP host: one IPv4 address, an IPID generator, a demux
// from four-tuples to TcpEndpoints, listening ports with small server
// applications, and RSTs for closed ports. This is the "arbitrary TCP-based
// server" the paper turns into a de-facto measurement server.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netsim/event_loop.hpp"
#include "tcpip/ipid.hpp"
#include "tcpip/packet.hpp"
#include "tcpip/tcp_endpoint.hpp"
#include "util/random.hpp"

namespace reorder::tcpip {

/// What a listening port does with an accepted connection.
enum class AppKind {
  kDiscard,       ///< accepts and consumes data, never sends (TCP port 9)
  kEcho,          ///< reflects received bytes (TCP port 7)
  kObjectServer,  ///< serves a fixed-size object after the first request
                  ///< byte arrives, then closes — an HTTP-GET stand-in
};

/// Listener configuration for one port.
struct ListenerConfig {
  AppKind app{AppKind::kDiscard};
  std::size_t object_size{16 * 1024};  ///< object server only
};

/// Host-wide configuration.
struct HostConfig {
  Ipv4Address address;
  std::string name{"host"};
  TcpBehavior behavior{};
  IpidPolicy ipid_policy{IpidPolicy::kGlobalCounter};
  std::uint16_t ipid_initial{1};
  std::uint64_t seed{1};
  std::map<std::uint16_t, ListenerConfig> listeners;
  bool rst_closed_ports{true};
  /// Answer ICMP echo requests. Operators increasingly disable or limit
  /// this (one of the paper's arguments against ping-based measurement).
  bool respond_to_ping{true};
  /// Maximum echo replies per second (0 = unlimited). Token-bucket with a
  /// one-second window, the common router implementation.
  std::uint32_t ping_rate_limit_per_sec{0};
  /// Probability a connection-opening SYN is silently dropped (a flaky
  /// host: SYN-rate-limiting firewall, overflowing accept queue). Each
  /// SYN rolls independently on the host RNG — deterministic in the
  /// seed — so a retransmitted SYN may get through where the first did
  /// not, exactly the retry behaviour probes see from such hosts.
  double syn_drop_probability{0.0};
};

/// Aggregate host counters for tests and experiment sanity checks.
struct HostCounters {
  std::uint64_t packets_in{0};
  std::uint64_t packets_out{0};
  std::uint64_t rst_closed_port{0};
  std::uint64_t connections_accepted{0};
  std::uint64_t echo_replies{0};
  std::uint64_t echo_rate_limited{0};
  std::uint64_t syn_dropped{0};
};

class Host {
 public:
  Host(sim::EventLoop& loop, HostConfig config);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  /// Wires the host's egress; packets the host sends flow through here.
  void set_transmit(std::function<void(Packet&&)> transmit) { transmit_ = std::move(transmit); }

  /// Network ingress: deliver one packet to this host.
  void receive(const Packet& pkt);

  Ipv4Address address() const { return config_.address; }
  const HostConfig& config() const { return config_; }
  const HostCounters& counters() const { return counters_; }

  /// The live endpoint for a four-tuple, or nullptr.
  TcpEndpoint* find_endpoint(const ConnKey& key);
  std::size_t active_connections() const { return endpoints_.size(); }

 private:
  void handle_icmp(const Packet& pkt);
  void accept_connection(const Packet& pkt);
  void attach_app(TcpEndpoint& ep, const ListenerConfig& listener);
  void send_segment(const ConnKey& key, TcpHeader header, std::vector<std::uint8_t> payload);
  void send_rst_for(const Packet& pkt);
  void schedule_reap(const ConnKey& key);

  sim::EventLoop& loop_;
  HostConfig config_;
  std::function<void(Packet&&)> transmit_;
  std::unique_ptr<IpidGenerator> ipid_;
  util::Rng rng_;
  using EndpointMap = std::map<ConnKey, std::optional<TcpEndpoint>>;
  EndpointMap endpoints_;  ///< engaged once accepted
  /// Reaped connections' map nodes, emptied, for the next connection to
  /// take: a host that cycles connections stops allocating them.
  std::vector<EndpointMap::node_type> spare_nodes_;
  HostCounters counters_;
  // Echo-reply token bucket state (window start + replies within it).
  util::TimePoint ping_window_start_;
  std::uint32_t ping_window_count_{0};
};

/// Deterministic payload for served objects: byte i of the object is
/// (i * 31 + 7) mod 256. Exposed so tests can verify transfers end-to-end.
std::uint8_t object_byte(std::size_t index);
std::vector<std::uint8_t> make_object(std::size_t size);

}  // namespace reorder::tcpip
