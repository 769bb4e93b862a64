// The one-target world the paper's controlled experiments run in: probe
// host — forward path — remote host(s) — reverse path — probe host, with
// trace taps at the validation points (actual arrival order at the
// remote; actual departure order from the remote). A Testbed is a
// one-target SurveyTestbed with a fixed identity and ground-truth capture
// on; it owns nothing of its own and reads target 0 for its callers.
#pragma once

#include <cstdint>

#include "core/reorder_test.hpp"
#include "core/survey_testbed.hpp"

namespace reorder::core {

struct TestbedConfig {
  std::uint64_t seed{1};
  /// Behaviour/IPID/app configuration of the remote. The standard
  /// listener set (discard on 9, echo on 7, a 16 KiB object on 80) is
  /// installed when no listeners are configured; every other field is
  /// kept.
  tcpip::HostConfig remote{};
  /// > 1 puts that many backends behind a transparent load balancer at
  /// remote_addr(); 1 is a plain single host.
  std::size_t backends{1};
  PathSpec forward{};
  PathSpec reverse{};
  /// Scheduler implementation for this testbed's event loop (see
  /// SurveyTestbedConfig::scheduler).
  sim::EventLoop::QueuePolicy scheduler{sim::EventLoop::QueuePolicy::kIndexedHeap};
};

class Testbed : private SurveyTestbed {
 public:
  explicit Testbed(TestbedConfig config);

  using SurveyTestbed::loop;
  using SurveyTestbed::probe;
  tcpip::Ipv4Address remote_addr() const { return target_addr(0); }
  tcpip::Host& remote(std::size_t i = 0) { return target_host(0, i); }
  std::size_t backend_count() const { return target_backend_count(0); }
  sim::LoadBalancer* balancer() { return target_balancer(0); }

  /// Runtime handles on the reordering processes (null when absent).
  sim::SwapShaper* forward_shaper() { return forward_handles(0).shaper; }
  sim::SwapShaper* reverse_shaper() { return reverse_handles(0).shaper; }
  sim::StripedLink* forward_striped() { return forward_handles(0).striped; }

  /// Ground-truth capture: packets as they arrive at the remote side
  /// (after all forward-path reordering).
  trace::TraceBuffer& remote_ingress_trace() { return target_traces(0)->remote_ingress; }
  /// Packets in the order the remote transmitted them (before any
  /// reverse-path reordering).
  trace::TraceBuffer& remote_egress_trace() { return target_traces(0)->remote_egress; }
  /// Packets as they arrive back at the probe.
  trace::TraceBuffer& probe_ingress_trace() { return target_traces(0)->probe_ingress; }

  /// Drives the loop until the test completes (or `deadline_s` of virtual
  /// time passes) and returns the result.
  TestRunResult run_sync(ReorderTest& test, const TestRunConfig& config,
                         std::int64_t deadline_s = 600);
};

}  // namespace reorder::core
