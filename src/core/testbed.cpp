#include "core/testbed.hpp"

namespace reorder::core {

tcpip::HostConfig default_remote_config(std::size_t object_size) {
  tcpip::HostConfig cfg;
  cfg.name = "remote";
  cfg.listeners[kDiscardPort] = tcpip::ListenerConfig{tcpip::AppKind::kDiscard, 0};
  cfg.listeners[kEchoPort] = tcpip::ListenerConfig{tcpip::AppKind::kEcho, 0};
  cfg.listeners[kHttpPort] = tcpip::ListenerConfig{tcpip::AppKind::kObjectServer, object_size};
  return cfg;
}

Testbed::Testbed(TestbedConfig config) : config_{std::move(config)}, loop_{config_.scheduler} {
  socket_ = std::make_unique<probe::SimRawSocket>(loop_, config_.probe_addr);
  probe_ = std::make_unique<probe::ProbeHost>(loop_, *socket_);

  // Remote host(s). With backends > 1 each host believes it owns the VIP.
  if (config_.remote.listeners.empty()) config_.remote = default_remote_config();
  for (std::size_t i = 0; i < std::max<std::size_t>(1, config_.backends); ++i) {
    tcpip::HostConfig host_cfg = config_.remote;
    host_cfg.address = config_.remote_addr;
    host_cfg.seed = config_.seed * 1000 + i + 1;
    // Distinct IPID starting points make disjoint counter spaces obvious.
    host_cfg.ipid_initial = static_cast<std::uint16_t>(1 + 17'000 * i);
    remotes_.push_back(std::make_unique<tcpip::Host>(loop_, std::move(host_cfg)));
  }
  if (remotes_.size() > 1) {
    std::vector<tcpip::Host*> raw;
    raw.reserve(remotes_.size());
    for (auto& h : remotes_) raw.push_back(h.get());
    balancer_.emplace(std::move(raw), config_.seed ^ 0x9e3779b9u);
  }

  // Forward: probe -> (stages) -> ingress tap -> remote/balancer.
  const PathHandles fwd = build_measurement_path(loop_, forward_, config_.forward, config_.seed,
                                                 0x11, &remote_ingress_, "remote-ingress");
  fwd_shaper_ = fwd.shaper;
  fwd_striped_ = fwd.striped;
  forward_.terminate([this](tcpip::Packet pkt) {
    if (balancer_) {
      balancer_->receive(pkt);
    } else {
      remotes_[0]->receive(pkt);
    }
    // The packet dies here (hosts consume it by const ref): recycle its
    // payload buffer for the next sender.
    tcpip::recycle(std::move(pkt));
  });
  socket_->set_transmit(forward_.entry());

  // Reverse: remote -> egress tap -> (stages) -> probe ingress tap -> probe.
  reverse_.emplace<trace::TraceTap>(loop_, remote_egress_, "remote-egress");
  const PathHandles rev = build_measurement_path(loop_, reverse_, config_.reverse, config_.seed,
                                                 0x22, &probe_ingress_, "probe-ingress");
  rev_shaper_ = rev.shaper;
  rev_striped_ = rev.striped;
  reverse_.terminate([this](tcpip::Packet pkt) { socket_->deliver(std::move(pkt)); });
  auto reverse_entry = reverse_.entry();
  for (auto& host : remotes_) host->set_transmit(reverse_entry);
}

TestRunResult Testbed::run_sync(ReorderTest& test, const TestRunConfig& config,
                                std::int64_t deadline_s) {
  // The completion slot is shared with the callback, not a stack reference:
  // a run abandoned at the deadline keeps running until its test starts
  // another run or is destroyed, and a test outside the registry may
  // complete on its own schedule whatever happens, so a completion can
  // fire during a LATER run_sync on the same loop — it must land in this
  // orphaned (heap) slot and be discarded, not scribble over a dead stack
  // frame.
  auto out = std::make_shared<std::optional<TestRunResult>>();
  test.run(config, [out](TestRunResult r) {
    if (!out->has_value()) *out = std::move(r);
  });
  loop_.run_while(loop_.now() + util::Duration::seconds(deadline_s),
                  [&out] { return !out->has_value(); });
  if (!out->has_value()) {
    // Poison the slot so the late completion above is dropped rather than
    // resurrected by a future reader.
    out->emplace();
    TestRunResult r;
    r.test_name = test.name();
    r.admissible = false;
    r.note = "test did not complete (event queue drained or deadline)";
    return r;
  }
  return std::move(**out);
}

}  // namespace reorder::core
