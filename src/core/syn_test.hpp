// The SYN Test (paper §III-D).
//
// Each sample sends two SYNs on the same four-tuple whose initial sequence
// numbers differ by a small offset. Per-flow load balancers hash the
// four-tuple, so both SYNs reach the same backend — this is the one test
// that works behind consumer-site load balancing.
//
// The first SYN to arrive puts the remote in SYN_RCVD and elicits a
// SYN/ACK whose acknowledgment number identifies *which* SYN arrived first
// (forward verdict). The second SYN elicits an RST from most stacks (or,
// per the letter of RFC 793, an RST only when in-window and a pure ACK
// otherwise); since the remote responds in arrival order, receiving that
// second reply before the SYN/ACK reveals reverse-path reordering.
//
// Politeness (the paper is explicit about not looking like a SYN flood):
// every sample completes the handshake with the surviving SYN and closes
// the connection with a FIN exchange; samples are rate-limited by
// TestRunConfig::sample_spacing.
#pragma once

#include <memory>

#include "core/reorder_test.hpp"
#include "probe/probe_host.hpp"

namespace reorder::core {

struct SynTestOptions {
  /// Sequence offset between the two SYNs.
  std::uint32_t syn_offset{64};
  /// Base ISS for crafted SYNs (per-sample jitter added internally).
  std::uint32_t iss{500'000};
  std::uint16_t advertised_mss{1460};
  std::uint16_t advertised_window{65535};
  /// How long to linger after classification to complete the polite
  /// close before the flow is abandoned.
  util::Duration close_linger{util::Duration::millis(400)};
  /// Replies spaced further apart than this are treated as involving a
  /// retransmitted SYN/ACK: the reverse verdict becomes ambiguous rather
  /// than trusting an order that a lost original would fake.
  util::Duration reply_spread_guard{util::Duration::millis(100)};
};

class SynTest final : public ReorderTest {
 public:
  SynTest(probe::ProbeHost& host, tcpip::Ipv4Address target, std::uint16_t port,
          SynTestOptions options = {});
  ~SynTest() override;

  std::string name() const override { return "syn"; }
  void run(const TestRunConfig& config, std::function<void(TestRunResult)> done) override;

 private:
  struct Run;
  probe::ProbeHost& host_;
  tcpip::Ipv4Address target_;
  std::uint16_t port_;
  SynTestOptions options_;
  std::unique_ptr<Run> run_;
};

}  // namespace reorder::core
