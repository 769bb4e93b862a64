// The TCP Data Transfer Test (paper §III, "an obvious point of
// comparison"). Fetch an object from a public server and watch the
// sequencing of the returned data. Two mitigations keep TCP dynamics out
// of the measurement: the probe acknowledges the *largest* sequence number
// received — even across holes — so the server never enters loss recovery,
// and the advertised MSS/window are clamped so the server emits small
// segments in steady window-sized bursts.
//
// Only the reverse path (server -> probe) is observable; each consecutive
// pair of data segments is one sample. Note the paper's §IV-C finding:
// because these segments are larger than minimum-sized probes, their
// leading edges are further apart and time-dependent reordering processes
// exchange them less often — this bias is reproduced faithfully.
#pragma once

#include <memory>

#include "core/reorder_test.hpp"
#include "probe/probe_host.hpp"
#include "probe/prober.hpp"

namespace reorder::core {

struct DataTransferOptions {
  /// Clamped MSS the probe advertises (the server's segment size).
  std::uint16_t mss{512};
  /// Advertised window; 2*mss keeps pairs of segments in flight.
  std::uint16_t window{1024};
  /// The request sent after establishment (an HTTP GET stand-in).
  std::string request{"GET / HTTP/1.0\r\n\r\n"};
  /// Give up if the transfer stalls this long.
  util::Duration stall_timeout{util::Duration::seconds(3)};
  probe::ProbeConnectionOptions connection{};
};

class DataTransferTest final : public ReorderTest {
 public:
  DataTransferTest(probe::ProbeHost& host, tcpip::Ipv4Address target, std::uint16_t port,
                   DataTransferOptions options = {});
  ~DataTransferTest() override;

  std::string name() const override { return "data-transfer"; }

  /// Note: config.samples is ignored — the sample count is however many
  /// consecutive segment pairs the object transfer produces (paper
  /// footnote 2). inter_packet_gap does not apply (the server controls
  /// spacing); sample_timeout bounds the whole transfer.
  void run(const TestRunConfig& config, std::function<void(TestRunResult)> done) override;

 private:
  struct Run;
  probe::ProbeHost& host_;
  tcpip::Ipv4Address target_;
  std::uint16_t port_;
  DataTransferOptions options_;
  std::unique_ptr<Run> run_;
};

}  // namespace reorder::core
