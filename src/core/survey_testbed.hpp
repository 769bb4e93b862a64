// The world builder: one probe host and N targets at distinct addresses,
// each behind its own emulated forward/reverse path, all sharing a single
// event loop. Probe egress is routed to the right forward path by
// destination address, which is what lets a SurveyEngine interleave
// measurement cycles against every target concurrently in one virtual
// timeline. A target may put several backends behind its address (a
// transparent load balancer) and may capture ground truth with trace
// taps; core::Testbed is the one-target view the paper's controlled
// experiments use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/path_builder.hpp"
#include "core/survey_engine.hpp"
#include "core/test_registry.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/load_balancer.hpp"
#include "netsim/path.hpp"
#include "probe/probe_host.hpp"
#include "probe/raw_socket.hpp"
#include "tcpip/host.hpp"
#include "trace/trace.hpp"

namespace reorder::core {

/// Well-known ports the default remote listens on.
constexpr std::uint16_t kDiscardPort = 9;
constexpr std::uint16_t kEchoPort = 7;
constexpr std::uint16_t kHttpPort = 80;

/// A HostConfig with the standard listener set (discard/echo/object) and
/// the given behaviour knobs — the usual starting point for experiments.
tcpip::HostConfig default_remote_config(std::size_t object_size = 16 * 1024);

/// One surveyed host: its address, behaviour, paths and test suite.
struct SurveyTargetConfig {
  std::string name;
  /// Auto-assigned default_target_address(index) when left zero.
  tcpip::Ipv4Address address{};
  /// Behaviour/IPID/app configuration; the standard listener set is
  /// installed when no listeners are configured, and every other field
  /// is kept.
  tcpip::HostConfig remote{};
  /// > 1 puts that many backends behind a transparent sim::LoadBalancer
  /// at `address`. Backend b runs with host_seed + b and IPID start
  /// ipid_initial + 17000·b, so their counter spaces are disjoint.
  std::size_t backends{1};
  /// Records ground truth in three trace taps (target_traces()): arrival
  /// order at the remote, the remote's departure order, and arrival order
  /// back at the probe.
  bool capture{false};
  PathSpec forward{};
  PathSpec reverse{};
  /// The techniques to cycle against this target (registry specs).
  std::vector<TestSpec> tests{TestSpec{"single-connection"}, TestSpec{"syn"}};

  /// Explicit stochastic identity. Every field left unset is derived by
  /// pin_global_identity() from the target's index in its world, so a
  /// target pinned to its GLOBAL fleet index beforehand keeps identical
  /// RNG streams no matter which world — and which worker — runs it.
  std::optional<std::uint64_t> host_seed;
  std::optional<std::uint16_t> ipid_initial;
  std::optional<std::uint64_t> forward_path_tag;
  std::optional<std::uint64_t> reverse_path_tag;
};

struct SurveyTestbedConfig {
  std::uint64_t seed{1};
  tcpip::Ipv4Address probe_addr{tcpip::Ipv4Address::from_octets(10, 0, 0, 1)};
  /// The event loop's queue. The reference map exists for differential
  /// testing (order-equivalence suite) and the scheduling benchmarks;
  /// experiments keep the default.
  sim::EventLoop::QueuePolicy scheduler{sim::EventLoop::QueuePolicy::kIndexedHeap};
  std::vector<SurveyTargetConfig> targets;
};

/// Ground truth of a capturing target (SurveyTargetConfig::capture).
struct TargetTraces {
  trace::TraceBuffer remote_ingress;  ///< the forward path's last stage
  trace::TraceBuffer remote_egress;   ///< the reverse path's first stage
  trace::TraceBuffer probe_ingress;   ///< the reverse path's last stage
};

/// Defaults for targets that leave name/address unset, derived from the
/// target's index.
std::string default_target_name(std::size_t index);
/// Spreads addresses across 10.1.x.y so fleets larger than one /24
/// don't wrap onto each other.
tcpip::Ipv4Address default_target_address(std::size_t index);

/// Pins `target`'s identity to `index`: an unset name and address take
/// the index's defaults, unset seeds the util::ShardSeeder derivation over
/// (survey_seed, index). Fields the caller set are kept. Pinned to its
/// global fleet index, a target's world is a pure function of (seed,
/// index), so it measures the same whichever world, worker or admission
/// order runs it.
void pin_global_identity(SurveyTargetConfig& target, std::size_t global_index,
                         std::uint64_t survey_seed);

class SurveyTestbed {
 public:
  explicit SurveyTestbed(SurveyTestbedConfig config);

  /// The paths and hosts call back into this world by address.
  SurveyTestbed(const SurveyTestbed&) = delete;
  SurveyTestbed& operator=(const SurveyTestbed&) = delete;

  sim::EventLoop& loop() { return loop_; }
  probe::ProbeHost& probe() { return *probe_; }

  std::size_t target_count() const { return targets_.size(); }
  const std::string& target_name(std::size_t i) const { return targets_.at(i)->config.name; }
  tcpip::Ipv4Address target_addr(std::size_t i) const { return targets_.at(i)->config.address; }
  /// Target i's backend `backend` (the plain host when it has one).
  tcpip::Host& target_host(std::size_t i, std::size_t backend = 0) {
    return *targets_.at(i)->hosts.at(backend);
  }
  std::size_t target_backend_count(std::size_t i) const { return targets_.at(i)->hosts.size(); }
  /// Null unless target i has more than one backend.
  sim::LoadBalancer* target_balancer(std::size_t i) {
    auto& balancer = targets_.at(i)->balancer;
    return balancer ? &*balancer : nullptr;
  }
  /// Runtime handles on the reordering processes of target i's paths.
  const PathHandles& forward_handles(std::size_t i) const {
    return targets_.at(i)->forward_handles;
  }
  const PathHandles& reverse_handles(std::size_t i) const {
    return targets_.at(i)->reverse_handles;
  }
  /// Null unless target i captures.
  TargetTraces* target_traces(std::size_t i) { return targets_.at(i)->traces.get(); }
  const std::vector<TestSpec>& target_tests(std::size_t i) const {
    return targets_.at(i)->config.tests;
  }

  /// Registers every target (with its configured test suite) on `engine`.
  void populate(SurveyEngine& engine);

 private:
  struct TargetNet {
    SurveyTargetConfig config;
    std::vector<std::unique_ptr<tcpip::Host>> hosts;
    std::optional<sim::LoadBalancer> balancer;
    std::unique_ptr<TargetTraces> traces;
    sim::Path forward;
    sim::Path reverse;
    PathHandles forward_handles;
    PathHandles reverse_handles;
  };

  sim::EventLoop loop_;
  std::unique_ptr<probe::SimRawSocket> socket_;
  std::unique_ptr<probe::ProbeHost> probe_;
  std::vector<std::unique_ptr<TargetNet>> targets_;
  /// Destination address -> forward-path owner.
  std::map<std::uint32_t, TargetNet*> routes_;
};

}  // namespace reorder::core
