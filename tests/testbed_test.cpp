// Tests for the world builder itself: wiring, trace taps, backend fan-out
// (per target in a SurveyTestbed, and through the one-target Testbed
// view), and whole-experiment determinism at the byte level.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/test_registry.hpp"
#include "core/testbed.hpp"
#include "probe/prober.hpp"
#include "survey_fixture.hpp"
#include "trace/pcap_writer.hpp"

namespace reorder::core {
namespace {

using util::Duration;

TEST(Testbed, DefaultsProvideListeners) {
  Testbed bed{TestbedConfig{}};
  EXPECT_EQ(bed.backend_count(), 1u);
  EXPECT_EQ(bed.balancer(), nullptr);
  const auto& listeners = bed.remote().config().listeners;
  EXPECT_TRUE(listeners.contains(kDiscardPort));
  EXPECT_TRUE(listeners.contains(kEchoPort));
  EXPECT_TRUE(listeners.contains(kHttpPort));
}

TEST(Testbed, RemoteKnobsSurviveWithoutListeners) {
  // A remote config with knobs but no listeners gets the standard
  // listener set added; the knobs must not be replaced with defaults.
  TestbedConfig cfg;
  cfg.remote.ipid_policy = tcpip::IpidPolicy::kRandom;
  cfg.remote.syn_drop_probability = 0.5;
  Testbed bed{cfg};
  const tcpip::HostConfig& remote = bed.remote().config();
  EXPECT_EQ(remote.ipid_policy, tcpip::IpidPolicy::kRandom);
  EXPECT_DOUBLE_EQ(remote.syn_drop_probability, 0.5);
  EXPECT_EQ(remote.listeners.size(), 3u);
  EXPECT_TRUE(remote.listeners.contains(kDiscardPort));
  EXPECT_TRUE(remote.listeners.contains(kEchoPort));
  EXPECT_TRUE(remote.listeners.contains(kHttpPort));
}

TEST(Testbed, ShaperHandlesExposedWhenConfigured) {
  TestbedConfig cfg;
  cfg.forward.swap_probability = 0.2;
  cfg.forward.striped = sim::StripedLinkConfig{};
  Testbed bed{cfg};
  ASSERT_NE(bed.forward_shaper(), nullptr);
  EXPECT_DOUBLE_EQ(bed.forward_shaper()->swap_probability(), 0.2);
  EXPECT_NE(bed.forward_striped(), nullptr);
  EXPECT_EQ(bed.reverse_shaper(), nullptr);
}

TEST(Testbed, TapsSeeBothDirections) {
  Testbed bed{TestbedConfig{}};
  probe::ProbeConnection conn{bed.probe(), bed.probe().make_flow(bed.remote_addr(), kDiscardPort),
                              probe::ProbeConnectionOptions{}};
  bool connected = false;
  conn.connect([&](bool ok) { connected = ok; });
  bed.loop().run_while(bed.loop().now() + Duration::seconds(10), [&] { return !connected; });
  ASSERT_TRUE(connected);
  bed.loop().run();  // drain the in-flight handshake ACK to the remote
  // SYN + final ACK at the remote ingress; SYN/ACK at remote egress and
  // probe ingress.
  EXPECT_GE(bed.remote_ingress_trace().size(), 2u);
  EXPECT_GE(bed.remote_egress_trace().size(), 1u);
  EXPECT_EQ(bed.remote_egress_trace().size(), bed.probe_ingress_trace().size())
      << "clean path: everything the remote sent arrived at the probe";
  // The captured traces are pcap-writable end to end.
  EXPECT_TRUE(trace::write_pcap_file("/tmp/testbed_tap_test.pcap", bed.remote_ingress_trace()));
  std::remove("/tmp/testbed_tap_test.pcap");
}

TEST(Testbed, BackendsShareTheVip) {
  TestbedConfig cfg;
  cfg.backends = 3;
  Testbed bed{cfg};
  EXPECT_EQ(bed.backend_count(), 3u);
  ASSERT_NE(bed.balancer(), nullptr);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bed.remote(i).address(), bed.remote_addr());
  }
}

TEST(Testbed, RunSyncReportsFailureWhenTestCannotComplete) {
  TestbedConfig cfg;
  cfg.forward.loss_probability = 1.0;
  Testbed bed{cfg};
  SingleConnectionOptions opts;
  opts.connection.max_syn_retries = 0;
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection", 0, opts});
  const auto result = bed.run_sync(*test, TestRunConfig{});
  EXPECT_FALSE(result.admissible);
}

/// Completes only after `delay` of virtual time — past any run_sync
/// deadline the tests below choose.
class SlowTest final : public ReorderTest {
 public:
  SlowTest(sim::EventLoop& loop, Duration delay) : loop_{loop}, delay_{delay} {}
  std::string name() const override { return "slow"; }
  void run(const TestRunConfig&, std::function<void(TestRunResult)> done) override {
    loop_.schedule(delay_, [done = std::move(done)] {
      TestRunResult r;
      r.test_name = "slow";
      r.note = "finished late";
      done(std::move(r));
    });
  }

 private:
  sim::EventLoop& loop_;
  Duration delay_;
};

TEST(Testbed, RunSyncAbandonedCompletionLeavesNoResidue) {
  // Regression: run_sync used to hand the test a reference to a
  // stack-local completion slot. A test like SlowTest completes on its
  // own schedule, so an abandoned run's completion fired during the NEXT
  // run_sync on the same loop — writing through a dangling stack
  // pointer. The slot is heap-shared now; the late write lands there and
  // is discarded.
  Testbed bed{TestbedConfig{}};
  SlowTest slow{bed.loop(), Duration::seconds(30)};
  const auto abandoned = bed.run_sync(slow, TestRunConfig{}, /*deadline_s=*/1);
  EXPECT_FALSE(abandoned.admissible);

  // The abandoned completion (t=30s) fires inside this run: the fresh
  // result must be untouched by it.
  SlowTest prompt{bed.loop(), Duration::seconds(40)};
  const auto fresh = bed.run_sync(prompt, TestRunConfig{}, /*deadline_s=*/60);
  EXPECT_TRUE(fresh.admissible);
  EXPECT_EQ(fresh.note, "finished late");
  EXPECT_EQ(fresh.test_name, "slow");
}

/// A test owns its one current run, and the run owns what it put into
/// the world: connections, flow registrations and pending events. So
/// ending a run mid-measurement, by destroying its test or by starting
/// the test's next run, must leave nothing behind and fire no completion.
class TestbedTeardown : public ::testing::TestWithParam<std::string> {
 protected:
  static TestRunConfig fifteen_samples() {
    TestRunConfig run;
    run.samples = 15;
    return run;
  }

  /// Nothing of any run is left in the probe host.
  static void expect_empty(Testbed& bed) {
    EXPECT_EQ(bed.probe().registered_flows(), 0u);
    EXPECT_EQ(bed.probe().registered_icmp(), 0u);
  }
};

TEST_P(TestbedTeardown, DestroyingATestMidRunEndsItWithoutACompletion) {
  Testbed bed{TestbedConfig{}};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{GetParam()});
  int completions = 0;
  test->run(fifteen_samples(), [&completions](TestRunResult) { ++completions; });
  bed.loop().advance(Duration::millis(150));
  ASSERT_EQ(completions, 0) << "the run must still be measuring";
  ASSERT_TRUE(bed.probe().registered_flows() > 0 || bed.probe().registered_icmp() > 0)
      << "a live run holds a flow or the ICMP handler";

  test.reset();
  // Long past every timer the run had armed, and past close_linger, so a
  // SYN sample's polite close has released its flow too.
  bed.loop().advance(Duration::seconds(700));
  EXPECT_EQ(completions, 0);
  expect_empty(bed);
}

TEST_P(TestbedTeardown, StartingARunEndsThePreviousOne) {
  Testbed bed{TestbedConfig{}};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{GetParam()});
  int first = 0;
  int second = 0;
  test->run(fifteen_samples(), [&first](TestRunResult) { ++first; });
  bed.loop().advance(Duration::millis(150));
  ASSERT_EQ(first, 0) << "the first run must still be measuring";

  test->run(fifteen_samples(), [&second](TestRunResult) { ++second; });
  bed.loop().advance(Duration::seconds(700));
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  expect_empty(bed);
}

INSTANTIATE_TEST_SUITE_P(EveryTechnique, TestbedTeardown,
                         ::testing::ValuesIn(TestRegistry::global().technique_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Testbed, WholeExperimentIsByteDeterministic) {
  // Strongest determinism check: the full pcap of a run (every packet,
  // every timestamp, every IPID) must be byte-identical across replays.
  auto run_and_dump = [](const char* path) {
    TestbedConfig cfg;
    cfg.seed = 20260610;
    cfg.forward.swap_probability = 0.25;
    cfg.reverse.swap_probability = 0.10;
    cfg.forward.loss_probability = 0.05;
    Testbed bed{cfg};
    auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection"});
    TestRunConfig run;
    run.samples = 15;
    (void)bed.run_sync(*test, run);
    EXPECT_TRUE(trace::write_pcap_file(path, bed.remote_ingress_trace()));
  };
  run_and_dump("/tmp/testbed_det_a.pcap");
  run_and_dump("/tmp/testbed_det_b.pcap");

  std::ifstream a{"/tmp/testbed_det_a.pcap", std::ios::binary};
  std::ifstream b{"/tmp/testbed_det_b.pcap", std::ios::binary};
  const std::vector<char> ba{std::istreambuf_iterator<char>(a),
                             std::istreambuf_iterator<char>()};
  const std::vector<char> bb{std::istreambuf_iterator<char>(b),
                             std::istreambuf_iterator<char>()};
  EXPECT_FALSE(ba.empty());
  EXPECT_EQ(ba, bb);
  std::remove("/tmp/testbed_det_a.pcap");
  std::remove("/tmp/testbed_det_b.pcap");
}

/// Two targets in one world: "balanced" behind three backends with
/// ground-truth capture on, "plain" a single host without it. Both are
/// pinned to their index, so each is also buildable alone.
std::vector<SurveyTargetConfig> balanced_and_plain(std::uint64_t seed) {
  SurveyTargetConfig balanced;
  balanced.name = "balanced";
  balanced.backends = 3;
  balanced.capture = true;
  balanced.forward.swap_probability = 0.2;
  balanced.reverse.swap_probability = 0.05;
  balanced.tests = {TestSpec{"syn"}, TestSpec{"dual-connection"}};
  SurveyTargetConfig plain;
  plain.name = "plain";
  plain.forward.swap_probability = 0.1;
  plain.tests = {TestSpec{"single-connection"}, TestSpec{"syn"}};
  std::vector<SurveyTargetConfig> targets{balanced, plain};
  for (std::size_t i = 0; i < targets.size(); ++i) pin_global_identity(targets[i], i, seed);
  return targets;
}

/// Surveys every target of `bed` for three rounds; returns the snapshot dump.
std::string survey(SurveyTestbed& bed) {
  SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  TestRunConfig run;
  run.samples = 10;
  engine.run(run, /*rounds=*/3, Duration::millis(500));
  return survey_fixture::snapshot_dump(engine.metrics());
}

/// (capture time, IPID) of every packet in a trace, in capture order.
std::vector<std::pair<std::int64_t, std::uint16_t>> timeline(const trace::TraceBuffer& trace) {
  std::vector<std::pair<std::int64_t, std::uint16_t>> out;
  for (const trace::TraceRecord& r : trace.records()) {
    out.emplace_back(r.at.ns(), r.packet.ip.identification);
  }
  return out;
}

TEST(SurveyTestbed, BackendsAndCaptureArePerTarget) {
  constexpr std::uint64_t kSeed = 5;
  SurveyTestbedConfig cfg;
  cfg.seed = kSeed;
  cfg.targets = balanced_and_plain(kSeed);
  SurveyTestbed bed{cfg};

  // The backends share the balanced target's address; the plain target
  // is one host with no balancer.
  ASSERT_EQ(bed.target_backend_count(0), 3u);
  ASSERT_NE(bed.target_balancer(0), nullptr);
  for (std::size_t b = 0; b < 3; ++b) {
    EXPECT_EQ(bed.target_host(0, b).address(), bed.target_addr(0));
  }
  EXPECT_EQ(bed.target_backend_count(1), 1u);
  EXPECT_EQ(bed.target_balancer(1), nullptr);
  EXPECT_NE(bed.target_addr(1), bed.target_addr(0));
  EXPECT_EQ(bed.target_traces(1), nullptr) << "a target without capture allocates no trace";

  const std::string together = survey(bed);
  ASSERT_FALSE(together.empty());

  // Only the capturing target's three traces fill, each with its own
  // traffic only.
  TargetTraces* traces = bed.target_traces(0);
  ASSERT_NE(traces, nullptr);
  ASSERT_FALSE(traces->remote_ingress.empty());
  ASSERT_FALSE(traces->remote_egress.empty());
  ASSERT_FALSE(traces->probe_ingress.empty());
  for (const trace::TraceRecord& r : traces->remote_ingress.records()) {
    EXPECT_EQ(r.packet.ip.dst, bed.target_addr(0));
  }
  for (const trace::TraceBuffer* t : {&traces->remote_egress, &traces->probe_ingress}) {
    for (const trace::TraceRecord& r : t->records()) EXPECT_EQ(r.packet.ip.src, bed.target_addr(0));
  }
  std::size_t backends_used = 0;
  for (std::size_t b = 0; b < 3; ++b) backends_used += bed.target_balancer(0)->forwarded_to(b) > 0;
  EXPECT_GE(backends_used, 2u) << "the balancer spreads flows over the backends";

  // Each target measures exactly what the same pinned target measures
  // alone, and the balanced target's taps capture the same timeline.
  std::string alone;
  for (std::size_t i = 0; i < cfg.targets.size(); ++i) {
    SurveyTestbedConfig one;
    one.seed = kSeed;
    one.targets = {cfg.targets[i]};
    SurveyTestbed solo{one};
    alone += survey(solo);
    if (i == 0) {
      TargetTraces* solo_traces = solo.target_traces(0);
      ASSERT_NE(solo_traces, nullptr);
      EXPECT_EQ(timeline(solo_traces->remote_ingress), timeline(traces->remote_ingress));
      EXPECT_EQ(timeline(solo_traces->remote_egress), timeline(traces->remote_egress));
      EXPECT_EQ(timeline(solo_traces->probe_ingress), timeline(traces->probe_ingress));
    }
  }
  EXPECT_EQ(together, alone);
}

TEST(Testbed, PathDescribeListsStages) {
  sim::Path path;
  sim::EventLoop loop;
  EXPECT_EQ(path.describe(), "wire");
  path.emplace<sim::LinkStage>(loop, sim::LinkParams{});
  path.emplace<sim::SwapShaper>(loop, sim::SwapShaperConfig{0.1, Duration::millis(10)},
                                util::Rng{1});
  EXPECT_EQ(path.describe(), "link > swap-shaper");
  EXPECT_EQ(path.stage_count(), 2u);
}

}  // namespace
}  // namespace reorder::core
