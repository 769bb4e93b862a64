#include "core/data_transfer_test.hpp"

#include <algorithm>
#include <map>

#include "tcpip/seq.hpp"

namespace reorder::core {

DataTransferTest::DataTransferTest(probe::ProbeHost& host, tcpip::Ipv4Address target,
                                   std::uint16_t port, DataTransferOptions options)
    : host_{host}, target_{target}, port_{port}, options_{options} {}

DataTransferTest::~DataTransferTest() = default;

/// Per-run state machine, owned by its test. Its callbacks capture it
/// without owning it; ending it cancels what it still has pending.
struct DataTransferTest::Run {
  probe::ProbeHost& host;
  DataTransferOptions options;
  TestRunConfig config;
  std::function<void(TestRunResult)> done;
  std::unique_ptr<probe::ProbeConnection> conn;

  TestRunResult result;
  bool finished{false};

  struct SegmentSeen {
    std::uint32_t rel_seq;
    std::uint64_t uid;
    util::TimePoint at;
  };
  std::vector<SegmentSeen> arrivals;      ///< unique data segments, arrival order
  std::map<std::uint32_t, bool> seen_seq; ///< dedup (retransmissions)
  std::uint32_t max_end_rel{0};           ///< highest byte received (rel)
  bool fin_seen{false};

  sim::Timer stall_timer{host.loop()};

  Run(probe::ProbeHost& h, DataTransferOptions o, TestRunConfig c,
      std::function<void(TestRunResult)> d)
      : host{h}, options{o}, config{c}, done{std::move(d)} {}

  void bump_stall_timer() {
    stall_timer.arm(options.stall_timeout, [this] { finish("transfer stalled"); });
  }

  void start(tcpip::Ipv4Address target, std::uint16_t port) {
    auto conn_opts = options.connection;
    conn_opts.advertised_mss = options.mss;
    conn_opts.advertised_window = options.window;
    conn = std::make_unique<probe::ProbeConnection>(host, host.make_flow(target, port),
                                                    conn_opts);
    conn->on_packet = [this](const tcpip::Packet& pkt) { on_packet(pkt); };
    bump_stall_timer();
    conn->connect([this](bool ok) {
      if (!ok) {
        result.admissible = false;
        finish("connect failed");
        return;
      }
      const auto& req = options.request;
      conn->send_data_rel(0,
                          std::span{reinterpret_cast<const std::uint8_t*>(req.data()), req.size()});
    });
  }

  void on_packet(const tcpip::Packet& pkt) {
    if (finished) return;
    if (pkt.tcp.is_rst()) {
      finish("connection reset");
      return;
    }
    if (!pkt.payload.empty()) {
      const std::uint32_t rel = pkt.tcp.seq - conn->rcv_base();
      const auto end_rel = rel + static_cast<std::uint32_t>(pkt.payload.size());
      if (seen_seq.emplace(rel, true).second) {
        arrivals.push_back(SegmentSeen{rel, pkt.uid, host.loop().now()});
        if (tcpip::seq_gt(end_rel, max_end_rel)) max_end_rel = end_rel;
        bump_stall_timer();
      }
      // Acknowledge the largest byte received, even across holes, so the
      // server keeps streaming instead of retransmitting.
      conn->send_ack_abs(conn->rcv_base() + max_end_rel);
    }
    if (pkt.tcp.is_fin() && !fin_seen) {
      fin_seen = true;
      const std::uint32_t fin_rel =
          (pkt.tcp.seq - conn->rcv_base()) + static_cast<std::uint32_t>(pkt.payload.size());
      conn->send_ack_abs(conn->rcv_base() + fin_rel + 1);
      finish("");
    }
  }

  void finish(const std::string& why) {
    if (finished) return;
    finished = true;
    stall_timer.cancel();
    result.note = why;

    // Reconstruct verdicts: the server transmits in sequence order, so the
    // send order is the segments sorted by sequence; every consecutive
    // pair in send order is one reverse-path sample.
    std::vector<SegmentSeen> by_seq = arrivals;
    std::sort(by_seq.begin(), by_seq.end(), [](const SegmentSeen& a, const SegmentSeen& b) {
      return tcpip::seq_lt(a.rel_seq, b.rel_seq);
    });
    std::map<std::uint32_t, std::size_t> arrival_pos;
    for (std::size_t i = 0; i < arrivals.size(); ++i) arrival_pos[arrivals[i].rel_seq] = i;

    for (std::size_t i = 0; i + 1 < by_seq.size(); ++i) {
      SampleResult s;
      s.forward = Ordering::kAmbiguous;  // this test cannot see the forward path
      const std::size_t p1 = arrival_pos[by_seq[i].rel_seq];
      const std::size_t p2 = arrival_pos[by_seq[i + 1].rel_seq];
      s.reverse = p2 < p1 ? Ordering::kReordered : Ordering::kInOrder;
      s.started = by_seq[i].at;
      s.completed = by_seq[i + 1].at;
      // uids in arrival order for ground-truth checks.
      s.rev_uid_first = p1 <= p2 ? by_seq[i].uid : by_seq[i + 1].uid;
      s.rev_uid_second = p1 <= p2 ? by_seq[i + 1].uid : by_seq[i].uid;
      result.samples.push_back(s);
    }
    result.aggregate();
    // The forward direction is unmeasurable; don't let the Ambiguous pile
    // suggest otherwise.
    result.forward = ReorderEstimate{};

    if (conn && conn->established()) {
      const std::uint32_t req_len = static_cast<std::uint32_t>(options.request.size());
      conn->close(req_len, [this] { complete(); });
    } else {
      complete();
    }
  }

  /// Shuts the connection where it is (a transfer that stalled in its
  /// handshake stops retransmitting SYNs), then reports. Completion can
  /// run inside the connection's own packet handler, so the connection
  /// object lives on with this run.
  void complete() {
    if (conn) conn->shut();
    auto cb = std::move(done);
    done = nullptr;
    if (cb) cb(std::move(result));
  }
};

void DataTransferTest::run(const TestRunConfig& config, std::function<void(TestRunResult)> done) {
  run_ = std::make_unique<Run>(host_, options_, config, std::move(done));
  run_->result.test_name = name();
  run_->start(target_, port_);
}

}  // namespace reorder::core
