// The Bennett et al. ping-burst baseline (paper §II related work).
//
// Send a burst of ICMP echo requests and inspect the order of the
// replies. This was the pre-existing single-ended technique; the paper's
// critique — reproduced by the benches built on this class — is that
// (a) it cannot attribute a reordering to the forward or reverse path,
// so it both under-counts total reordering and over-counts either
// direction; (b) ICMP is filtered and rate-limited in practice; and
// (c) its metrics ("fraction of bursts with at least one reordering")
// are extremely sensitive to the burst size.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/reorder_test.hpp"
#include "probe/probe_host.hpp"
#include "util/time.hpp"

namespace reorder::core {

struct PingBurstOptions {
  int burst_size{5};              ///< Bennett: bursts of 5 (and later 100)
  std::size_t payload_bytes{48};  ///< 56-byte ICMP messages, like the study
  std::uint16_t identifier{0x4242};
  util::Duration burst_timeout{util::Duration::millis(800)};
};

/// Aggregate outcome of a ping-burst run.
struct PingBurstResult {
  int bursts{0};
  int bursts_with_reordering{0};     ///< bursts with >= 1 out-of-order reply
  int bursts_complete{0};            ///< bursts with every reply received
  std::uint64_t requests_sent{0};
  std::uint64_t replies_received{0};
  std::uint64_t total_inversions{0}; ///< summed over bursts
  std::uint64_t adjacent_pairs{0};   ///< consecutive reply pairs observed
  std::uint64_t adjacent_exchanged{0};

  double burst_reorder_fraction() const {
    return bursts > 0 ? static_cast<double>(bursts_with_reordering) / bursts : 0.0;
  }
  double pair_rate() const {
    return adjacent_pairs > 0 ? static_cast<double>(adjacent_exchanged) / adjacent_pairs : 0.0;
  }
  double reply_rate() const {
    return requests_sent > 0 ? static_cast<double>(replies_received) / requests_sent : 0.0;
  }
};

/// Runs bursts of echo requests against one target, as a ReorderTest so
/// the baseline joins registry-driven scenarios and surveys next to the
/// paper's techniques. Its verdicts are round-trip (combined-path) by
/// construction, exactly the limitation the comparison benches
/// demonstrate: the adjacent-pair counts land in `forward`, `reverse`
/// stays empty, and the result note records the caveat.
class PingBurstTest final : public ReorderTest {
 public:
  PingBurstTest(probe::ProbeHost& host, tcpip::Ipv4Address target, PingBurstOptions options = {});
  ~PingBurstTest() override;

  PingBurstTest(const PingBurstTest&) = delete;
  PingBurstTest& operator=(const PingBurstTest&) = delete;

  std::string name() const override { return "ping-burst"; }

  /// config.samples is the number of bursts; sample_spacing paces them.
  /// inter_packet_gap does not apply (the burst paces itself internally).
  void run(const TestRunConfig& config, std::function<void(TestRunResult)> done) override;

  /// Burst-level statistics from the most recent completed run (the
  /// Bennett metrics — burst fraction, reply rate — the benches report).
  const PingBurstResult& last_burst_result() const { return last_; }

 private:
  struct Run;
  probe::ProbeHost& host_;
  tcpip::Ipv4Address target_;
  PingBurstOptions options_;
  std::unique_ptr<Run> run_;
  PingBurstResult last_;
};

}  // namespace reorder::core
