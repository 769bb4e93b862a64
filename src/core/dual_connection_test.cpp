#include "core/dual_connection_test.hpp"

#include <array>

#include "tcpip/seq.hpp"

namespace reorder::core {

namespace {
bool is_pure_ack(const tcpip::Packet& pkt) {
  return pkt.tcp.is_ack() && !pkt.tcp.is_syn() && !pkt.tcp.is_fin() && !pkt.tcp.is_rst() &&
         pkt.payload.empty();
}
constexpr std::array<std::uint8_t, 1> kProbeByte{0x42};
}  // namespace

DualConnectionTest::DualConnectionTest(probe::ProbeHost& host, tcpip::Ipv4Address target,
                                       std::uint16_t port, DualConnectionOptions options)
    : host_{host}, target_{target}, port_{port}, options_{options} {}

DualConnectionTest::~DualConnectionTest() = default;

/// Per-run state machine, owned by its test. Its callbacks capture it
/// without owning it; ending it cancels what it still has pending.
struct DualConnectionTest::Run {
  enum class Phase { kConnect, kValidate, kSettle, kMeasure, kClosing, kDone };

  probe::ProbeHost& host;
  DualConnectionOptions options;
  TestRunConfig config;
  std::function<void(TestRunResult)> done;
  std::function<void(const IpidAnalysis&)> on_validation;

  std::array<std::unique_ptr<probe::ProbeConnection>, 2> conns;
  int connected{0};
  bool connect_failed{false};
  int closes_pending{2};

  TestRunResult result;
  Phase phase{Phase::kConnect};

  // Validation state.
  std::vector<IpidObservation> observations;
  int validation_sent{0};
  int validation_retries{0};

  // Measurement state.
  int sample_index{0};
  SampleResult sample;
  struct AckSeen {
    int conn;
    std::uint16_t ipid;
    std::uint64_t uid;
  };
  std::vector<AckSeen> acks;

  sim::Timer timer{host.loop()};  ///< the current phase's one timeout
  /// The current sample's second packet, waiting out inter_packet_gap;
  /// classifying the sample cancels it.
  sim::Timer gap_timer{host.loop()};

  Run(probe::ProbeHost& h, DualConnectionOptions o, TestRunConfig c,
      std::function<void(TestRunResult)> d)
      : host{h}, options{o}, config{c}, done{std::move(d)} {}

  void start(tcpip::Ipv4Address target, std::uint16_t port) {
    for (int i = 0; i < 2; ++i) {
      auto opts = options.connection;
      opts.iss += static_cast<std::uint32_t>(i) * 50'000;  // keep spaces distinct
      conns[i] = std::make_unique<probe::ProbeConnection>(host, host.make_flow(target, port),
                                                          opts);
      conns[i]->on_packet = [this, i](const tcpip::Packet& pkt) { on_packet(i, pkt); };
      conns[i]->connect([this](bool ok) { on_connected(ok); });
    }
  }

  void on_connected(bool ok) {
    if (phase != Phase::kConnect) return;
    if (!ok) {
      connect_failed = true;
      result.admissible = false;
      result.note = "connect failed";
      finish();
      return;
    }
    if (++connected < 2) return;
    if (options.validate_ipid) {
      phase = Phase::kValidate;
      validation_sent = 0;
      send_next_validation_probe();
    } else {
      begin_settle();
    }
  }

  // --- validation: strictly alternating probes, one outstanding at a time ---

  void send_next_validation_probe() {
    if (validation_sent >= 2 * options.validation_probes) {
      const IpidAnalysis analysis = analyze_ipid_sequence(observations);
      if (on_validation) on_validation(analysis);
      if (analysis.verdict != IpidVerdict::kSharedMonotonic) {
        result.admissible = false;
        result.note = "ipid validation: " + to_string(analysis.verdict);
        finish();
        return;
      }
      begin_settle();
      return;
    }
    const int conn = validation_sent % 2;
    validation_retries = 0;
    conns[conn]->send_data_rel(1, kProbeByte);
    timer.arm(options.validation_timeout, [this, conn] { validation_probe_timeout(conn); });
  }

  void validation_probe_timeout(int conn) {
    if (phase != Phase::kValidate) return;
    if (++validation_retries > 3) {
      result.admissible = false;
      result.note = "ipid validation: remote unresponsive";
      finish();
      return;
    }
    conns[conn]->send_data_rel(1, kProbeByte);
    timer.arm(options.validation_timeout, [this, conn] { validation_probe_timeout(conn); });
  }

  void begin_settle() {
    phase = Phase::kSettle;
    timer.arm(util::Duration::millis(50), [this] { next_sample(); });
  }

  // --- measurement ---

  void next_sample() {
    if (phase == Phase::kDone || phase == Phase::kClosing) return;
    if (sample_index >= config.samples) {
      finish();
      return;
    }
    phase = Phase::kMeasure;
    acks.clear();
    sample = SampleResult{};
    sample.started = host.loop().now();
    sample.gap = config.inter_packet_gap;

    auto first = conns[0]->build_data_rel(1, kProbeByte);
    auto second = conns[1]->build_data_rel(1, kProbeByte);
    first.uid = host.loop().next_packet_uid();
    second.uid = host.loop().next_packet_uid();
    sample.fwd_uid_first = first.uid;
    sample.fwd_uid_second = second.uid;
    conns[0]->send_raw(std::move(first));
    if (config.inter_packet_gap.is_zero()) {
      conns[1]->send_raw(std::move(second));
    } else {
      gap_timer.arm(config.inter_packet_gap, [this, pkt = std::move(second)]() mutable {
        if (phase != Phase::kMeasure) return;
        conns[1]->send_raw(std::move(pkt));
      });
    }
    timer.arm(config.sample_timeout, [this] { classify(); });
  }

  void on_packet(int conn, const tcpip::Packet& pkt) {
    if (phase == Phase::kDone) return;
    if (pkt.tcp.is_rst() && phase != Phase::kClosing) {
      result.note = "connection reset by remote";
      while (static_cast<int>(result.samples.size()) < config.samples) {
        SampleResult s;
        s.forward = Ordering::kLost;
        s.reverse = Ordering::kLost;
        result.samples.push_back(s);
      }
      finish();
      return;
    }
    if (!is_pure_ack(pkt)) return;

    switch (phase) {
      case Phase::kValidate:
        // Only the outstanding probe's connection may answer; a stray ACK
        // from a retransmission on the other connection is ignored.
        if (conn != validation_sent % 2) break;
        observations.push_back(IpidObservation{pkt.ip.identification, conn});
        ++validation_sent;
        send_next_validation_probe();
        break;
      case Phase::kMeasure:
        acks.push_back(AckSeen{conn, pkt.ip.identification, pkt.uid});
        if (acks.size() == 2) classify();
        break;
      default:
        break;
    }
  }

  void classify() {
    timer.cancel();
    gap_timer.cancel();
    sample.completed = host.loop().now();
    Ordering fwd = Ordering::kLost;
    Ordering rev = Ordering::kLost;
    // Need one ACK from each connection; two from the same connection
    // means the other sample (or its ACK) was lost.
    if (acks.size() >= 2 && acks[0].conn != acks[1].conn) {
      const AckSeen& a = acks[0].conn == 0 ? acks[0] : acks[1];
      const AckSeen& b = acks[0].conn == 1 ? acks[0] : acks[1];
      if (a.ipid == b.ipid) {
        fwd = Ordering::kAmbiguous;
        rev = Ordering::kAmbiguous;
      } else {
        // Forward: the remote ACKed in arrival order, and transmitted the
        // ACKs in IPID order. Connection 0's sample was sent first.
        const bool remote_sent_a_first = tcpip::ipid_lt(a.ipid, b.ipid);
        fwd = remote_sent_a_first ? Ordering::kInOrder : Ordering::kReordered;
        // Reverse: did the ACKs arrive in the order the remote sent them?
        const bool a_arrived_first = acks[0].conn == 0;
        rev = (a_arrived_first == remote_sent_a_first) ? Ordering::kInOrder
                                                       : Ordering::kReordered;
      }
      sample.rev_uid_first = acks[0].uid;
      sample.rev_uid_second = acks[1].uid;
    }
    sample.forward = fwd;
    sample.reverse = rev;
    result.samples.push_back(sample);
    ++sample_index;
    phase = Phase::kSettle;
    timer.arm(config.sample_spacing, [this] { next_sample(); });
  }

  void finish() {
    if (phase == Phase::kDone || phase == Phase::kClosing) return;
    timer.cancel();
    result.aggregate();
    if (connect_failed || !conns[0] || !conns[1] || !conns[0]->established() ||
        !conns[1]->established()) {
      for (auto& c : conns) {
        if (c) c->abort();
      }
      complete();
      return;
    }
    // Polite teardown: fill the hole (relative byte 0) so the connection
    // can close cleanly, then FIN both connections.
    phase = Phase::kClosing;
    for (auto& c : conns) c->send_data_rel(0, kProbeByte);
    timer.arm(util::Duration::millis(50), [this] {
      for (auto& c : conns) {
        c->close(2, [this] {
          if (--closes_pending == 0) complete();
        });
      }
    });
  }

  /// Shuts both connections where they are, then reports. Completion can
  /// run inside a connection's own packet handler, so the connection
  /// objects live on with this run.
  void complete() {
    phase = Phase::kDone;
    timer.cancel();
    for (auto& c : conns) {
      if (c) c->shut();
    }
    auto cb = std::move(done);
    done = nullptr;
    if (cb) cb(std::move(result));
  }
};

void DualConnectionTest::run(const TestRunConfig& config, std::function<void(TestRunResult)> done) {
  run_ = std::make_unique<Run>(host_, options_, config, std::move(done));
  run_->result.test_name = name();
  run_->on_validation = [this](const IpidAnalysis& a) { last_validation_ = a; };
  run_->start(target_, port_);
}

}  // namespace reorder::core
