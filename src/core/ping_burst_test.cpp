#include "core/ping_burst_test.hpp"

#include <algorithm>

#include "trace/analyzer.hpp"

namespace reorder::core {

/// Per-run state machine, owned by its test. Its callbacks capture it
/// without owning it; ending it cancels its timer and drops the ICMP
/// handler it registered for its target.
struct PingBurstTest::Run {
  probe::ProbeHost& host;
  tcpip::Ipv4Address target;
  PingBurstOptions options;
  int bursts_requested{0};
  util::Duration spacing;
  std::function<void(PingBurstResult)> done;

  PingBurstResult result;
  int burst_index{0};
  std::uint16_t seq_base{0};
  std::vector<std::uint16_t> arrival;  // reply sequences in arrival order
  bool burst_open{false};
  bool finished{false};
  sim::Timer timer{host.loop()};  ///< the burst timeout, then the spacing

  Run(probe::ProbeHost& h, tcpip::Ipv4Address t, PingBurstOptions o)
      : host{h}, target{t}, options{o} {}

  ~Run() {
    if (!finished) host.unregister_icmp(target);
  }

  void start() {
    host.register_icmp(target, [this](const tcpip::Packet& pkt) { on_reply(pkt); });
    next_burst();
  }

  void next_burst() {
    if (burst_index >= bursts_requested) {
      finish();
      return;
    }
    arrival.clear();
    burst_open = true;
    seq_base = static_cast<std::uint16_t>(burst_index * options.burst_size);
    for (int i = 0; i < options.burst_size; ++i) {
      tcpip::Packet req;
      req.ip.src = host.address();
      req.ip.dst = target;
      req.ip.protocol = tcpip::IpProto::kIcmp;
      req.icmp = tcpip::IcmpEcho{tcpip::IcmpType::kEchoRequest, options.identifier,
                                 static_cast<std::uint16_t>(seq_base + i)};
      req.payload.assign(options.payload_bytes, 0x42);
      host.send(std::move(req));
      ++result.requests_sent;
    }
    timer.arm(options.burst_timeout, [this] { close_burst(); });
  }

  void on_reply(const tcpip::Packet& pkt) {
    if (!burst_open) return;
    if (!pkt.icmp.has_value() || pkt.icmp->type != tcpip::IcmpType::kEchoReply) return;
    if (pkt.icmp->identifier != options.identifier) return;
    const std::uint16_t seq = pkt.icmp->sequence;
    if (seq < seq_base || seq >= seq_base + options.burst_size) return;  // stale burst
    arrival.push_back(seq);
    ++result.replies_received;
    if (static_cast<int>(arrival.size()) == options.burst_size) close_burst();
  }

  void close_burst() {
    if (!burst_open) return;
    burst_open = false;

    ++result.bursts;
    if (static_cast<int>(arrival.size()) == options.burst_size) ++result.bursts_complete;
    // Convert reply sequences to 0-based send indices for the analyzers.
    std::vector<std::uint32_t> order;
    order.reserve(arrival.size());
    for (const auto seq : arrival) order.push_back(static_cast<std::uint32_t>(seq - seq_base));
    if (trace::any_reordering(order)) ++result.bursts_with_reordering;
    result.total_inversions += trace::count_inversions(order);
    // Adjacent send-index pairs (i, i+1) observed exchanged.
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      ++result.adjacent_pairs;
      if (order[i] > order[i + 1]) ++result.adjacent_exchanged;
    }

    ++burst_index;
    timer.arm(spacing, [this] { next_burst(); });
  }

  void finish() {
    finished = true;
    host.unregister_icmp(target);
    auto cb = std::move(done);
    done = nullptr;
    if (cb) cb(result);
  }
};

PingBurstTest::PingBurstTest(probe::ProbeHost& host, tcpip::Ipv4Address target,
                             PingBurstOptions options)
    : host_{host}, target_{target}, options_{options} {}

PingBurstTest::~PingBurstTest() = default;

void PingBurstTest::run(const TestRunConfig& config, std::function<void(TestRunResult)> done) {
  run_ = std::make_unique<Run>(host_, target_, options_);
  run_->bursts_requested = config.samples;
  run_->spacing = config.sample_spacing;
  run_->done = [this, done = std::move(done)](PingBurstResult r) {
    last_ = r;
    TestRunResult out;
    out.test_name = name();
    out.forward.in_order = static_cast<std::uint64_t>(r.adjacent_pairs - r.adjacent_exchanged);
    out.forward.reordered = static_cast<std::uint64_t>(r.adjacent_exchanged);
    // Same unit as the pair counts above: adjacent pairs a complete run
    // would have produced but lost replies ate.
    const std::int64_t expected_pairs =
        static_cast<std::int64_t>(r.bursts) * std::max(0, options_.burst_size - 1);
    out.forward.lost = static_cast<std::uint64_t>(
        std::max<std::int64_t>(0, expected_pairs - static_cast<std::int64_t>(r.adjacent_pairs)));
    out.admissible = r.replies_received > 0;
    out.note = out.admissible ? "round-trip verdicts: forward holds combined-path pair counts "
                                "(direction-ambiguous)"
                              : "no echo replies (ICMP filtered or rate-limited away)";
    done(std::move(out));
  };
  run_->start();
}

}  // namespace reorder::core
