#include "core/survey_testbed.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/shard_seeder.hpp"

namespace reorder::core {

tcpip::HostConfig default_remote_config(std::size_t object_size) {
  tcpip::HostConfig cfg;
  cfg.name = "remote";
  cfg.listeners[kDiscardPort] = tcpip::ListenerConfig{tcpip::AppKind::kDiscard, 0};
  cfg.listeners[kEchoPort] = tcpip::ListenerConfig{tcpip::AppKind::kEcho, 0};
  cfg.listeners[kHttpPort] = tcpip::ListenerConfig{tcpip::AppKind::kObjectServer, object_size};
  return cfg;
}

std::string default_target_name(std::size_t index) {
  return "target-" + std::to_string(index);
}

tcpip::Ipv4Address default_target_address(std::size_t index) {
  // 254 hosts per /24, 256 /24s per second-octet block: 10.1.0.1 through
  // 10.1.255.254, then 10.2.0.1, ... — ~16.5M distinct defaults. Indices
  // below 65024 map exactly as they always did (10.1.x.y); the carry into
  // the second octet is what lets a million-target fleet use defaults
  // without colliding.
  const std::size_t subnet = index / 254;
  return tcpip::Ipv4Address::from_octets(10, static_cast<std::uint8_t>(1 + subnet / 256),
                                         static_cast<std::uint8_t>(subnet % 256),
                                         static_cast<std::uint8_t>(index % 254 + 1));
}

void pin_global_identity(SurveyTargetConfig& target, std::size_t global_index,
                         std::uint64_t survey_seed) {
  if (target.name.empty()) target.name = default_target_name(global_index);
  if (target.address == tcpip::Ipv4Address{}) {
    target.address = default_target_address(global_index);
  }
  const util::TargetSeeds seeds = util::ShardSeeder{survey_seed}.target(global_index);
  if (!target.host_seed) target.host_seed = seeds.host_seed;
  if (!target.ipid_initial) target.ipid_initial = seeds.ipid_initial;
  if (!target.forward_path_tag) target.forward_path_tag = seeds.forward_tag;
  if (!target.reverse_path_tag) target.reverse_path_tag = seeds.reverse_tag;
}

SurveyTestbed::SurveyTestbed(SurveyTestbedConfig config) : loop_{config.scheduler} {
  socket_ = std::make_unique<probe::SimRawSocket>(loop_, config.probe_addr);
  probe_ = std::make_unique<probe::ProbeHost>(loop_, *socket_);

  for (std::size_t index = 0; index < config.targets.size(); ++index) {
    auto net = std::make_unique<TargetNet>();
    net->config = std::move(config.targets[index]);
    pin_global_identity(net->config, index, config.seed);
    const SurveyTargetConfig& target = net->config;

    // Install only the standard listener set when none is configured —
    // the target's behaviour/IPID knobs must survive. With backends > 1
    // each backend believes it owns the target's address.
    tcpip::HostConfig host_cfg = target.remote;
    if (host_cfg.listeners.empty()) host_cfg.listeners = default_remote_config().listeners;
    host_cfg.address = target.address;
    host_cfg.name = target.name;
    for (std::size_t b = 0; b < std::max<std::size_t>(1, target.backends); ++b) {
      tcpip::HostConfig backend_cfg = host_cfg;
      backend_cfg.seed = *target.host_seed + b;
      // Distinct IPID starting points make disjoint counter spaces obvious.
      backend_cfg.ipid_initial = static_cast<std::uint16_t>(*target.ipid_initial + 17'000 * b);
      net->hosts.push_back(std::make_unique<tcpip::Host>(loop_, std::move(backend_cfg)));
    }
    if (net->hosts.size() > 1) {
      std::vector<tcpip::Host*> backends;
      backends.reserve(net->hosts.size());
      for (auto& host : net->hosts) backends.push_back(host.get());
      net->balancer.emplace(std::move(backends), config.seed ^ 0x9e3779b9u);
    }
    if (target.capture) net->traces = std::make_unique<TargetTraces>();
    TargetTraces* traces = net->traces.get();

    // Forward: probe -> (stages) -> [ingress tap] -> host or balancer.
    // The packet dies there (hosts consume it by const ref): recycle its
    // payload buffer for the next sender.
    net->forward_handles = build_measurement_path(
        loop_, net->forward, target.forward, config.seed, *target.forward_path_tag,
        traces ? &traces->remote_ingress : nullptr, "remote-ingress");
    net->forward.terminate([net = net.get()](tcpip::Packet pkt) {
      if (net->balancer) {
        net->balancer->receive(pkt);
      } else {
        net->hosts.front()->receive(pkt);
      }
      tcpip::recycle(std::move(pkt));
    });

    // Reverse: host(s) -> [egress tap] -> (stages) -> [probe ingress tap]
    // -> probe.
    if (traces) {
      net->reverse.emplace<trace::TraceTap>(loop_, traces->remote_egress, "remote-egress");
    }
    net->reverse_handles = build_measurement_path(
        loop_, net->reverse, target.reverse, config.seed, *target.reverse_path_tag,
        traces ? &traces->probe_ingress : nullptr, "probe-ingress");
    net->reverse.terminate([this](tcpip::Packet pkt) { socket_->deliver(std::move(pkt)); });
    const auto reverse_entry = net->reverse.entry();
    for (auto& host : net->hosts) host->set_transmit(reverse_entry);

    if (!routes_.emplace(target.address.value(), net.get()).second) {
      throw std::invalid_argument{"SurveyTestbed: duplicate target address " +
                                  target.address.to_string()};
    }
    targets_.push_back(std::move(net));
  }

  socket_->set_transmit([this](tcpip::Packet pkt) {
    const auto it = routes_.find(pkt.ip.dst.value());
    if (it == routes_.end()) return;  // destination unreachable: drop
    it->second->forward.entry()(std::move(pkt));
  });
}

void SurveyTestbed::populate(SurveyEngine& engine) {
  for (const auto& target : targets_) {
    engine.add_target(target->config.name, *probe_, target->config.address,
                      target->config.tests);
  }
}

}  // namespace reorder::core
