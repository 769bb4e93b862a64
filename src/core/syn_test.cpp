#include "core/syn_test.hpp"

#include <algorithm>

#include "probe/packet_factory.hpp"
#include "tcpip/seq.hpp"

namespace reorder::core {

SynTest::SynTest(probe::ProbeHost& host, tcpip::Ipv4Address target, std::uint16_t port,
                 SynTestOptions options)
    : host_{host}, target_{target}, port_{port}, options_{options} {}

SynTest::~SynTest() = default;

/// Per-run state machine, owned by its test. Its callbacks capture it
/// without owning it; ending it cancels what it still has pending and
/// drops its current sample's flow. A classified sample's polite close
/// holds only the host, so it runs to close_linger whatever becomes of
/// the run.
struct SynTest::Run {
  probe::ProbeHost& host;
  tcpip::Ipv4Address target;
  std::uint16_t port;
  SynTestOptions options;
  TestRunConfig config;
  std::function<void(TestRunResult)> done;

  TestRunResult result;
  int sample_index{0};
  bool finished{false};

  // The current sample's flow.
  struct Flow {
    probe::FlowAddr addr;
    std::uint32_t iss1{0};
    std::uint32_t iss2{0};
    SampleResult sample;
    struct Reply {
      bool is_synack{false};
      std::uint32_t ack{0};
      std::uint32_t seq{0};
      std::uint64_t uid{0};
      util::TimePoint at;
    };
    std::vector<Reply> replies;
  };
  Flow flow;
  /// The flow routes to this run: registered and not yet classified.
  bool flow_open{false};

  sim::Timer timer{host.loop()};  ///< the sample timeout, then the spacing
  /// The current sample's second SYN, waiting out inter_packet_gap;
  /// classifying the sample cancels it.
  sim::Timer gap_timer{host.loop()};

  Run(probe::ProbeHost& h, tcpip::Ipv4Address t, std::uint16_t p, SynTestOptions o,
      TestRunConfig c, std::function<void(TestRunResult)> d)
      : host{h}, target{t}, port{p}, options{o}, config{c}, done{std::move(d)} {}

  ~Run() {
    if (flow_open) host.unregister_flow(flow.addr);
  }

  void next_sample() {
    if (finished) return;
    if (sample_index >= config.samples) {
      finish();
      return;
    }
    begin_sample();
  }

  void begin_sample() {
    std::vector<Flow::Reply> replies = std::move(flow.replies);
    flow = Flow{};
    replies.clear();
    flow.replies = std::move(replies);  // keeps its capacity across samples
    flow.addr = host.make_flow(target, port);
    // Jitter the ISS per sample so remote stale state can never collide.
    flow.iss1 = options.iss + static_cast<std::uint32_t>(sample_index) * 131'072;
    flow.iss2 = flow.iss1 + options.syn_offset;
    flow.sample.started = host.loop().now();
    flow.sample.gap = config.inter_packet_gap;

    host.register_flow(flow.addr, [this](const tcpip::Packet& pkt) { on_packet(pkt); });
    flow_open = true;

    const probe::PacketFactory factory{flow.addr};
    auto syn1 = factory.syn(flow.iss1, options.advertised_mss, options.advertised_window);
    auto syn2 = factory.syn(flow.iss2, options.advertised_mss, options.advertised_window);
    syn1.uid = host.loop().next_packet_uid();
    syn2.uid = host.loop().next_packet_uid();
    flow.sample.fwd_uid_first = syn1.uid;
    flow.sample.fwd_uid_second = syn2.uid;
    host.send(std::move(syn1));
    if (config.inter_packet_gap.is_zero()) {
      host.send(std::move(syn2));
    } else {
      gap_timer.arm(config.inter_packet_gap,
                    [this, pkt = std::move(syn2)]() mutable { host.send(std::move(pkt)); });
    }
    timer.arm(config.sample_timeout, [this] { classify(); });
  }

  void on_packet(const tcpip::Packet& pkt) {
    if (!flow_open) return;
    Flow& f = flow;

    Flow::Reply r;
    r.uid = pkt.uid;
    r.seq = pkt.tcp.seq;
    r.ack = pkt.tcp.ack;
    r.at = host.loop().now();
    if (pkt.tcp.is_syn() && pkt.tcp.is_ack()) {
      r.is_synack = true;
    } else if (pkt.tcp.is_rst() || (pkt.tcp.is_ack() && pkt.payload.empty())) {
      r.is_synack = false;  // the second-SYN response (RST or pure ACK)
    } else {
      return;  // unrelated traffic
    }
    f.replies.push_back(r);
    // A SYN/ACK plus any second reply classifies the sample. (Dual-RST
    // hosts may deliver a third packet; it is ignored.)
    const bool have_synack =
        f.replies.size() >= 1 &&
        (f.replies[0].is_synack || (f.replies.size() >= 2 && f.replies[1].is_synack));
    if (f.replies.size() >= 2 && have_synack) classify();
  }

  void classify() {
    if (!flow_open) return;
    flow_open = false;
    Flow& f = flow;
    timer.cancel();
    gap_timer.cancel();
    f.sample.completed = host.loop().now();

    const Flow::Reply* synack = nullptr;
    for (const auto& r : f.replies) {
      if (r.is_synack) {
        synack = &r;
        break;
      }
    }
    Ordering fwd = Ordering::kLost;
    Ordering rev = Ordering::kLost;
    if (synack != nullptr) {
      // Forward: the SYN/ACK acknowledges the first-arrived SYN.
      if (synack->ack == f.iss1 + 1) {
        fwd = Ordering::kInOrder;
      } else if (synack->ack == f.iss2 + 1) {
        fwd = Ordering::kReordered;
      } else {
        fwd = Ordering::kAmbiguous;
      }
      // Reverse: the remote transmits the SYN/ACK before the second-SYN
      // response; if the response overtook it, the replies were exchanged
      // on the way back. A retransmitted SYN/ACK is not a response, so
      // look for the first non-SYN/ACK reply specifically.
      const Flow::Reply* response = nullptr;
      std::size_t synack_pos = 0;
      std::size_t response_pos = 0;
      for (std::size_t i = 0; i < f.replies.size(); ++i) {
        if (f.replies[i].is_synack && &f.replies[i] == synack) synack_pos = i;
        if (!f.replies[i].is_synack && response == nullptr) {
          response = &f.replies[i];
          response_pos = i;
        }
      }
      if (response != nullptr) {
        // Guard against SYN/ACK retransmissions: a genuine reverse-path
        // exchange delivers both replies within a fraction of the RTT. If
        // the two replies are spaced like a retransmission timeout, the
        // original SYN/ACK was lost and reply order proves nothing.
        const auto spread = synack_pos < response_pos
                                ? f.replies[response_pos].at - f.replies[synack_pos].at
                                : f.replies[synack_pos].at - f.replies[response_pos].at;
        if (spread > options.reply_spread_guard) {
          rev = Ordering::kAmbiguous;
        } else {
          rev = synack_pos < response_pos ? Ordering::kInOrder : Ordering::kReordered;
        }
        const std::size_t first = std::min(synack_pos, response_pos);
        const std::size_t second = std::max(synack_pos, response_pos);
        f.sample.rev_uid_first = f.replies[first].uid;
        f.sample.rev_uid_second = f.replies[second].uid;
      } else {
        // Lone SYN/ACK (possibly retransmitted): an ignore-second-SYN host
        // or a lost reply. The forward verdict stands; reverse cannot be
        // determined.
        rev = Ordering::kAmbiguous;
      }
    }
    f.sample.forward = fwd;
    f.sample.reverse = rev;
    result.samples.push_back(f.sample);

    polite_close(f.addr, synack);
    ++sample_index;
    timer.arm(config.sample_spacing, [this] { next_sample(); });
  }

  /// Completes the three-way handshake with whichever ISS the remote
  /// accepted, then FINs. The remote's discard service closes in turn; the
  /// flow's new handler acknowledges its FIN. After `close_linger` the
  /// flow is torn down regardless. The close holds the host, its FIN's
  /// sequence number and the window, never the run; the handler reads
  /// the flow's address off the FIN, so it fits std::function's local
  /// buffer.
  void polite_close(const probe::FlowAddr& addr, const Flow::Reply* synack) {
    if (synack == nullptr) {
      host.unregister_flow(addr);
      return;
    }
    const std::uint32_t our_next = synack->ack;  // iss + 1 of the surviving SYN
    const std::uint32_t remote_next = synack->seq + 1;
    const probe::PacketFactory factory{addr};
    host.send(factory.ack(our_next, remote_next, options.advertised_window));
    host.send(factory.fin(our_next, remote_next, options.advertised_window));
    probe::ProbeHost* const h = &host;
    host.register_flow(addr, [h, our_next, window = options.advertised_window](
                                 const tcpip::Packet& pkt) {
      if (!pkt.tcp.is_fin()) return;
      const probe::PacketFactory reply{probe::FlowAddr{pkt.ip.dst, pkt.tcp.dst_port, pkt.ip.src,
                                                       pkt.tcp.src_port}};
      const std::uint32_t fin_at = pkt.tcp.seq + static_cast<std::uint32_t>(pkt.payload.size());
      h->send(reply.ack(our_next + 1, fin_at + 1, window));
    });
    host.loop().schedule(options.close_linger, [h, addr] { h->unregister_flow(addr); });
  }

  void finish() {
    if (finished) return;
    finished = true;
    timer.cancel();
    result.aggregate();
    auto cb = std::move(done);
    done = nullptr;
    if (cb) cb(std::move(result));
  }
};

void SynTest::run(const TestRunConfig& config, std::function<void(TestRunResult)> done) {
  run_ = std::make_unique<Run>(host_, target_, port_, options_, config, std::move(done));
  run_->result.test_name = name();
  run_->result.samples.reserve(static_cast<std::size_t>(std::max(0, config.samples)));
  run_->next_sample();
}

}  // namespace reorder::core
