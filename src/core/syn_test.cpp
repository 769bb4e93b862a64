#include "core/syn_test.hpp"

#include "probe/packet_factory.hpp"
#include "tcpip/seq.hpp"

namespace reorder::core {

SynTest::SynTest(probe::ProbeHost& host, tcpip::Ipv4Address target, std::uint16_t port,
                 SynTestOptions options)
    : host_{host}, target_{target}, port_{port}, options_{options} {}

struct SynTest::Run : std::enable_shared_from_this<SynTest::Run> {
  probe::ProbeHost& host;
  tcpip::Ipv4Address target;
  std::uint16_t port;
  SynTestOptions options;
  TestRunConfig config;
  std::function<void(TestRunResult)> done;

  TestRunResult result;
  int sample_index{0};
  bool finished{false};

  // Per-sample flow state.
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
    bool classified{false};
    bool closing{false};
    std::uint32_t fin_seq{0};
  };
  std::shared_ptr<Flow> flow;

  std::uint64_t timer_token{0};
  std::uint64_t timer_generation{0};

  Run(probe::ProbeHost& h, tcpip::Ipv4Address t, std::uint16_t p, SynTestOptions o,
      TestRunConfig c, std::function<void(TestRunResult)> d)
      : host{h}, target{t}, port{p}, options{o}, config{c}, done{std::move(d)} {}

  tcpip::Environment& env() { return host.env(); }

  void arm_timer(util::Duration delay, std::function<void()> fn) {
    cancel_timer();
    const std::uint64_t gen = ++timer_generation;
    timer_token = env().schedule(delay, [self = shared_from_this(), fn = std::move(fn), gen] {
      if (gen != self->timer_generation) return;
      self->timer_token = 0;
      fn();
    });
  }
  void cancel_timer() {
    if (timer_token != 0) env().cancel(timer_token);
    timer_token = 0;
    ++timer_generation;
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
    auto f = std::make_shared<Flow>();
    f->addr = host.make_flow(target, port);
    // Jitter the ISS per sample so remote stale state can never collide.
    f->iss1 = options.iss + static_cast<std::uint32_t>(sample_index) * 131'072;
    f->iss2 = f->iss1 + options.syn_offset;
    f->sample.started = env().now();
    f->sample.gap = config.inter_packet_gap;
    flow = f;

    host.register_flow(f->addr, [self = shared_from_this(), f](const tcpip::Packet& pkt) {
      self->on_packet(*f, pkt);
    });

    const probe::PacketFactory factory{f->addr};
    auto syn1 = factory.syn(f->iss1, options.advertised_mss, options.advertised_window);
    auto syn2 = factory.syn(f->iss2, options.advertised_mss, options.advertised_window);
    syn1.uid = env().next_packet_uid();
    syn2.uid = env().next_packet_uid();
    f->sample.fwd_uid_first = syn1.uid;
    f->sample.fwd_uid_second = syn2.uid;
    host.send(std::move(syn1));
    if (config.inter_packet_gap.is_zero()) {
      host.send(std::move(syn2));
    } else {
      env().schedule(config.inter_packet_gap,
                     [self = shared_from_this(), f, pkt = std::move(syn2)]() mutable {
                       if (self->flow != f || f->classified) return;
                       self->host.send(std::move(pkt));
                     });
    }
    arm_timer(config.sample_timeout, [this, f] { classify(*f); });
  }

  void on_packet(Flow& f, const tcpip::Packet& pkt) {
    if (f.closing) {
      // Polite-close traffic: acknowledge the remote's FIN.
      if (pkt.tcp.is_fin()) {
        const probe::PacketFactory factory{f.addr};
        const std::uint32_t fin_at = pkt.tcp.seq + static_cast<std::uint32_t>(pkt.payload.size());
        host.send(factory.ack(f.fin_seq + 1, fin_at + 1, options.advertised_window));
      }
      return;
    }
    if (f.classified) return;

    Flow::Reply r;
    r.uid = pkt.uid;
    r.seq = pkt.tcp.seq;
    r.ack = pkt.tcp.ack;
    r.at = env().now();
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
    if (f.replies.size() >= 2 && have_synack) classify(f);
  }

  void classify(Flow& f) {
    if (f.classified) return;
    f.classified = true;
    cancel_timer();
    f.sample.completed = env().now();

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

    polite_close(f, synack);
    ++sample_index;
    arm_timer(config.sample_spacing, [this] { next_sample(); });
  }

  /// Completes the three-way handshake with whichever ISS the remote
  /// accepted, then FINs. The remote's discard service closes in turn; its
  /// FIN is acknowledged by the flow handler above. After `close_linger`
  /// the flow is torn down regardless.
  void polite_close(Flow& f, const Flow::Reply* synack) {
    if (synack == nullptr) {
      host.unregister_flow(f.addr);
      return;
    }
    f.closing = true;
    const std::uint32_t our_next = synack->ack;  // iss + 1 of the surviving SYN
    const std::uint32_t remote_next = synack->seq + 1;
    const probe::PacketFactory factory{f.addr};
    host.send(factory.ack(our_next, remote_next, options.advertised_window));
    host.send(factory.fin(our_next, remote_next, options.advertised_window));
    f.fin_seq = our_next;
    auto addr = f.addr;
    env().schedule(options.close_linger,
                   [self = shared_from_this(), addr] { self->host.unregister_flow(addr); });
  }

  void finish() {
    if (finished) return;
    finished = true;
    cancel_timer();
    result.aggregate();
    auto cb = std::move(done);
    done = nullptr;
    if (cb) cb(std::move(result));
  }
};

void SynTest::run(const TestRunConfig& config, std::function<void(TestRunResult)> done) {
  auto run = std::make_shared<Run>(host_, target_, port_, options_, config, std::move(done));
  run->result.test_name = name();
  run->next_sample();
}

}  // namespace reorder::core
