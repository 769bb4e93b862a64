// The Single Connection Test (paper §III-B).
//
// One TCP connection to the target. Each sample has two phases:
//
//   preparation — a 1-byte segment one past the expected sequence number
//   is sent (repeatedly, if need be) until a duplicate ACK confirms that a
//   sequence hole exists at the receiver with one byte queued behind it;
//
//   measurement — two 1-byte segments straddling the queued byte are sent.
//   In the in-order send variant (data "1" then data "3") the receiver
//   answers (ack 2, ack 4) when the pair arrives in order and
//   (ack 1, ack 4) when exchanged; the ACK arrival order additionally
//   reveals reverse-path reordering. Delayed ACKs can coalesce the
//   in-order case into a lone ack 4, which is why the reversed variant
//   (data "3" then data "1") is the default: out-of-order arrivals are
//   ACKed immediately, at the cost of a lone final ACK aliasing forward
//   reordering with loss (both paper-documented behaviours, both
//   reproduced here).
#pragma once

#include <memory>

#include "core/reorder_test.hpp"
#include "probe/probe_host.hpp"
#include "probe/prober.hpp"

namespace reorder::core {

struct SingleConnectionOptions {
  /// Send the higher-sequence sample first (the paper's delayed-ACK
  /// mitigation). Default on.
  bool reversed_order{true};
  /// In the reversed variant, interpret a lone final ACK as forward
  /// reordering (paper behaviour; aliases with loss) rather than ambiguous.
  bool lone_final_ack_is_reordered{true};
  probe::ProbeConnectionOptions connection{};
  /// Retransmission timer for preparation/resync segments.
  util::Duration aux_rto{util::Duration::millis(250)};
  int max_aux_retries{6};
  /// Quiet period after prep/resync so stray duplicate ACKs from
  /// retransmissions cannot be mistaken for measurement replies.
  util::Duration settle{util::Duration::millis(50)};
};

class SingleConnectionTest final : public ReorderTest {
 public:
  SingleConnectionTest(probe::ProbeHost& host, tcpip::Ipv4Address target, std::uint16_t port,
                       SingleConnectionOptions options = {});
  ~SingleConnectionTest() override;

  std::string name() const override;
  void run(const TestRunConfig& config, std::function<void(TestRunResult)> done) override;

 private:
  struct Run;
  probe::ProbeHost& host_;
  tcpip::Ipv4Address target_;
  std::uint16_t port_;
  SingleConnectionOptions options_;
  std::unique_ptr<Run> run_;
};

}  // namespace reorder::core
