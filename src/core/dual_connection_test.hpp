// The Dual Connection Test (paper §III-C).
//
// Two established connections to the target. Each sample sends one
// out-of-order 1-byte segment on each connection (sequence one beyond the
// expected byte); both are acknowledged immediately (no delayed-ACK
// ambiguity). Under a shared monotonic IPID counter, the IPIDs on the two
// ACKs reveal the order in which the remote transmitted them — i.e. the
// order the samples *arrived* (forward verdict) — and comparing that
// against the ACKs' arrival order at the probe yields the reverse verdict.
// Both directions from a single sample, loss detectable; the price is the
// IPID assumption, validated up front (see ipid_validator.hpp).
#pragma once

#include <memory>

#include "core/ipid_validator.hpp"
#include "core/reorder_test.hpp"
#include "probe/probe_host.hpp"
#include "probe/prober.hpp"

namespace reorder::core {

struct DualConnectionOptions {
  probe::ProbeConnectionOptions connection{};
  /// Run the IPID validation phase before measuring; inadmissible hosts
  /// yield admissible=false results with the verdict in `note`.
  bool validate_ipid{true};
  /// Probes per connection during validation.
  int validation_probes{8};
  util::Duration validation_timeout{util::Duration::millis(500)};
};

class DualConnectionTest final : public ReorderTest {
 public:
  DualConnectionTest(probe::ProbeHost& host, tcpip::Ipv4Address target, std::uint16_t port,
                     DualConnectionOptions options = {});
  ~DualConnectionTest() override;

  std::string name() const override { return "dual-connection"; }
  void run(const TestRunConfig& config, std::function<void(TestRunResult)> done) override;

  /// The validation analysis from the most recent run (empty before).
  const IpidAnalysis& last_validation() const { return last_validation_; }

 private:
  struct Run;
  probe::ProbeHost& host_;
  tcpip::Ipv4Address target_;
  std::uint16_t port_;
  DualConnectionOptions options_;
  IpidAnalysis last_validation_;
  std::unique_ptr<Run> run_;
};

}  // namespace reorder::core
