#include "core/single_connection_test.hpp"

#include <algorithm>
#include <array>

#include "tcpip/seq.hpp"

namespace reorder::core {

namespace {
bool is_pure_ack(const tcpip::Packet& pkt) {
  return pkt.tcp.is_ack() && !pkt.tcp.is_syn() && !pkt.tcp.is_fin() && !pkt.tcp.is_rst() &&
         pkt.payload.empty();
}
}  // namespace

SingleConnectionTest::SingleConnectionTest(probe::ProbeHost& host, tcpip::Ipv4Address target,
                                           std::uint16_t port, SingleConnectionOptions options)
    : host_{host}, target_{target}, port_{port}, options_{options} {}

SingleConnectionTest::~SingleConnectionTest() = default;

std::string SingleConnectionTest::name() const {
  return options_.reversed_order ? "single-connection" : "single-connection-inorder";
}

/// Per-run state machine, owned by its test. Its callbacks capture it
/// without owning it; ending it cancels what it still has pending.
struct SingleConnectionTest::Run {
  enum class Phase { kConnect, kResync, kResyncSettle, kPrep, kPrepSettle, kMeasure, kDone };

  probe::ProbeHost& host;
  SingleConnectionOptions options;
  TestRunConfig config;
  std::function<void(TestRunResult)> done;
  std::unique_ptr<probe::ProbeConnection> conn;

  TestRunResult result;
  Phase phase{Phase::kConnect};
  int sample_index{0};
  std::uint32_t base{0};           ///< relative seq where the current hole sits
  std::uint32_t known_rcv_rel{0};  ///< highest ack (relative) seen from the remote

  // Current sample bookkeeping.
  SampleResult sample;
  struct AckSeen {
    std::uint32_t rel;  ///< 0 = hole dup-ack, 2 = mid, 3 = full, relative to base
    std::uint64_t uid;
  };
  std::vector<AckSeen> acks;

  sim::Timer timer{host.loop()};  ///< the current phase's one timeout
  /// The current sample's second packet, waiting out inter_packet_gap;
  /// classifying the sample cancels it.
  sim::Timer gap_timer{host.loop()};
  int aux_attempts{0};

  Run(probe::ProbeHost& h, SingleConnectionOptions o, TestRunConfig c,
      std::function<void(TestRunResult)> d)
      : host{h}, options{o}, config{c}, done{std::move(d)} {}

  void start(tcpip::Ipv4Address target, std::uint16_t port) {
    conn = std::make_unique<probe::ProbeConnection>(host, host.make_flow(target, port),
                                                    options.connection);
    conn->on_packet = [this](const tcpip::Packet& pkt) { on_packet(pkt); };
    conn->connect([this](bool ok) {
      if (!ok) {
        result.admissible = false;
        result.note = "connect failed";
        finish(/*graceful=*/false);
        return;
      }
      next_sample();
    });
  }

  // --- per-sample pipeline: resync -> settle -> prep -> settle -> measure ---

  void next_sample() {
    if (phase == Phase::kDone) return;
    if (sample_index >= config.samples) {
      finish(/*graceful=*/true);
      return;
    }
    begin_resync();
  }

  /// Makes sure the remote's receive point has reached `base` (re-sending
  /// any bytes lost in previous samples) before a new hole is prepared.
  void begin_resync() {
    phase = Phase::kResync;
    aux_attempts = 0;
    if (tcpip::seq_geq(known_rcv_rel, base)) {
      begin_settle(Phase::kResyncSettle);
      return;
    }
    send_resync();
  }

  void send_resync() {
    // Fill [known_rcv_rel, base) in one segment (tiny in practice).
    const std::uint32_t len = base - known_rcv_rel;
    std::vector<std::uint8_t> fill(len, 0x5a);
    conn->send_data_rel(known_rcv_rel, fill);
    timer.arm(options.aux_rto, [this] {
      if (phase != Phase::kResync) return;
      if (++aux_attempts > options.max_aux_retries) {
        abandon("resync failed: remote unresponsive");
        return;
      }
      send_resync();
    });
  }

  void begin_settle(Phase which) {
    phase = which;
    timer.arm(options.settle, [this, which] {
      if (phase != which) return;
      if (which == Phase::kResyncSettle) {
        begin_prep();
      } else {
        begin_measure();
      }
    });
  }

  void begin_prep() {
    phase = Phase::kPrep;
    aux_attempts = 0;
    send_prep();
  }

  void send_prep() {
    const std::array<std::uint8_t, 1> one{0xa5};
    conn->send_data_rel(base + 1, one);
    timer.arm(options.aux_rto, [this] {
      if (phase != Phase::kPrep) return;
      if (++aux_attempts > options.max_aux_retries) {
        abandon("prep failed: remote unresponsive");
        return;
      }
      send_prep();
    });
  }

  void begin_measure() {
    phase = Phase::kMeasure;
    acks.clear();
    sample = SampleResult{};
    sample.started = host.loop().now();
    sample.gap = config.inter_packet_gap;

    const std::array<std::uint8_t, 1> low{0x01};
    const std::array<std::uint8_t, 1> high{0x03};
    auto first = options.reversed_order ? conn->build_data_rel(base + 2, high)
                                        : conn->build_data_rel(base, low);
    auto second = options.reversed_order ? conn->build_data_rel(base, low)
                                         : conn->build_data_rel(base + 2, high);
    first.uid = host.loop().next_packet_uid();
    second.uid = host.loop().next_packet_uid();
    sample.fwd_uid_first = first.uid;
    sample.fwd_uid_second = second.uid;
    conn->send_raw(std::move(first));
    if (config.inter_packet_gap.is_zero()) {
      conn->send_raw(std::move(second));
    } else {
      gap_timer.arm(config.inter_packet_gap, [this, pkt = std::move(second)]() mutable {
        if (phase != Phase::kMeasure) return;
        conn->send_raw(std::move(pkt));
      });
    }
    timer.arm(config.sample_timeout, [this] {
      if (phase != Phase::kMeasure) return;
      classify();
    });
  }

  void on_packet(const tcpip::Packet& pkt) {
    if (phase == Phase::kDone) return;
    if (pkt.tcp.is_rst()) {
      abandon("connection reset by remote");
      return;
    }
    if (!is_pure_ack(pkt)) return;
    const std::uint32_t ack_rel = pkt.tcp.ack - conn->snd_base();
    if (tcpip::seq_gt(ack_rel, known_rcv_rel)) known_rcv_rel = ack_rel;

    switch (phase) {
      case Phase::kResync:
        if (tcpip::seq_geq(ack_rel, base)) begin_settle(Phase::kResyncSettle);
        break;
      case Phase::kPrep:
        // The duplicate ACK for the hole acknowledges exactly `base`.
        if (ack_rel == base) begin_settle(Phase::kPrepSettle);
        break;
      case Phase::kMeasure: {
        const std::uint32_t off = ack_rel - base;
        if (off == 0 || off == 2 || off == 3) {
          acks.push_back(AckSeen{off, pkt.uid});
          if (acks.size() == 2) classify();
        }
        break;
      }
      default:
        break;  // settling or connecting: strays are deliberately ignored
    }
  }

  void classify() {
    timer.cancel();
    gap_timer.cancel();
    sample.completed = host.loop().now();
    // Map the observed ACK pattern to verdicts. Offsets: 0 = hole dup-ack
    // ("ack 1" in the paper's figure), 2 = post-hole-fill ("ack 2"/"ack 3"),
    // 3 = everything ("ack 4").
    const auto pattern = [&]() -> std::pair<int, int> {
      if (acks.size() >= 2) return {static_cast<int>(acks[0].rel), static_cast<int>(acks[1].rel)};
      if (acks.size() == 1) return {static_cast<int>(acks[0].rel), -1};
      return {-1, -1};
    }();

    Ordering fwd = Ordering::kLost;
    Ordering rev = Ordering::kLost;
    const bool reversed = options.reversed_order;
    const int first = pattern.first;
    const int second = pattern.second;
    if (second >= 0) {
      // Both ACKs arrived; the pair (first, second) decides everything.
      const int in_order_first = reversed ? 0 : 2;
      if (first == in_order_first && second == 3) {
        fwd = Ordering::kInOrder;
        rev = Ordering::kInOrder;
      } else if (first == 3 && second == in_order_first) {
        fwd = Ordering::kInOrder;
        rev = Ordering::kReordered;
      } else {
        const int reordered_first = reversed ? 2 : 0;
        if (first == reordered_first && second == 3) {
          fwd = Ordering::kReordered;
          rev = Ordering::kInOrder;
        } else if (first == 3 && second == reordered_first) {
          fwd = Ordering::kReordered;
          rev = Ordering::kReordered;
        } else {
          fwd = Ordering::kAmbiguous;
          rev = Ordering::kAmbiguous;
        }
      }
    } else if (first == 3) {
      // Lone final ACK: delayed-ACK coalescing (in-order variant) or
      // forward reordering vs loss (reversed variant).
      if (reversed && options.lone_final_ack_is_reordered) {
        fwd = Ordering::kReordered;
      } else {
        fwd = Ordering::kAmbiguous;
      }
      rev = Ordering::kAmbiguous;
    } else if (first >= 0) {
      fwd = Ordering::kLost;
      rev = Ordering::kLost;
    }
    sample.forward = fwd;
    sample.reverse = rev;
    if (!acks.empty()) sample.rev_uid_first = acks[0].uid;
    if (acks.size() > 1) sample.rev_uid_second = acks[1].uid;

    result.samples.push_back(sample);
    ++sample_index;
    base += 3;
    phase = Phase::kResync;  // placeholder until the spacing timer fires
    timer.arm(config.sample_spacing, [this] { next_sample(); });
  }

  void abandon(const std::string& why) {
    if (phase == Phase::kDone) return;
    result.note = why;
    while (static_cast<int>(result.samples.size()) < config.samples) {
      SampleResult s;
      s.forward = Ordering::kLost;
      s.reverse = Ordering::kLost;
      result.samples.push_back(s);
    }
    finish(/*graceful=*/false);
  }

  void finish(bool graceful) {
    if (phase == Phase::kDone) return;
    phase = Phase::kDone;
    timer.cancel();
    result.aggregate();
    if (graceful && conn && conn->established()) {
      // Politely close at the byte the remote expects next.
      conn->close(base, [this] { complete(); });
    } else {
      if (conn) conn->abort();
      complete();
    }
  }

  /// Shuts the connection where it is, then reports. Completion can run
  /// inside the connection's own packet handler, so the connection object
  /// lives on with this run.
  void complete() {
    if (conn) conn->shut();
    auto cb = std::move(done);
    done = nullptr;
    if (cb) cb(std::move(result));
  }
};

void SingleConnectionTest::run(const TestRunConfig& config,
                               std::function<void(TestRunResult)> done) {
  run_ = std::make_unique<Run>(host_, options_, config, std::move(done));
  run_->result.test_name = name();
  run_->result.samples.reserve(static_cast<std::size_t>(std::max(0, config.samples)));
  run_->start(target_, port_);
}

}  // namespace reorder::core
