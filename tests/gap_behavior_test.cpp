// The inter-packet-gap parameter against hold-window reordering processes,
// and whole-suite session integration.
#include <gtest/gtest.h>

#include "core/survey_engine.hpp"
#include "core/testbed.hpp"

namespace reorder::core {
namespace {

using util::Duration;

// A swap shaper can only exchange a pair whose spacing is inside its hold
// window: the gap parameter must drive the measured rate from ~p to ~0.
struct GapCase {
  std::int64_t gap_us;
  double expected_rate;
};

class GapVsHoldWindow : public ::testing::TestWithParam<GapCase> {};

TEST_P(GapVsHoldWindow, SynTestSeesTheProcessDieBeyondTheHold) {
  const auto& param = GetParam();
  TestbedConfig cfg;
  cfg.seed = 7000 + static_cast<std::uint64_t>(param.gap_us);
  cfg.forward.swap_probability = 0.30;
  cfg.forward.swap_max_hold = Duration::millis(2);  // a short-lived process
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"syn"});
  TestRunConfig run;
  run.samples = 250;
  run.inter_packet_gap = Duration::micros(param.gap_us);
  // Pace samples well beyond one RTT so the previous sample's polite-close
  // traffic has fully drained: otherwise the FIN acknowledgment (sent one
  // RTT after classification) lands between gap-spaced SYNs and absorbs
  // their swap — a real interleaving artifact, excluded here on purpose.
  run.sample_spacing = Duration::millis(150);
  const auto result = bed.run_sync(*test, run, 3000);
  ASSERT_TRUE(result.admissible);
  EXPECT_NEAR(result.forward.rate_or(0.0), param.expected_rate, 0.08)
      << "gap " << param.gap_us << "us against a 2ms hold window";
}

INSTANTIATE_TEST_SUITE_P(Sweep, GapVsHoldWindow,
                         ::testing::Values(GapCase{0, 0.30},       // inside the window
                                           GapCase{500, 0.30},     // still inside
                                           GapCase{5000, 0.0},     // beyond 2ms: process gone
                                           GapCase{20000, 0.0}));

// A sample's paced second packet belongs to its sample. When the sample
// classifies first (here it times out before inter_packet_gap elapses),
// the packet is never sent, rather than landing inside a later sample.
TEST(GapBeyondSampleTimeout, NoSecondPacketOutlivesItsSample) {
  for (const char* technique :
       {"single-connection", "single-connection-inorder", "dual-connection", "syn"}) {
    TestbedConfig cfg;
    cfg.seed = 5;
    Testbed bed{cfg};
    auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{technique});
    TestRunConfig run;
    run.samples = 8;
    run.sample_timeout = Duration::millis(100);
    run.inter_packet_gap = Duration::millis(300);
    const auto result = bed.run_sync(*test, run);
    ASSERT_EQ(result.samples.size(), 8u) << technique << ": " << result.note;
    std::vector<std::uint64_t> seconds;
    for (const SampleResult& sample : result.samples) {
      ASSERT_NE(sample.fwd_uid_second, 0u) << technique;
      seconds.push_back(sample.fwd_uid_second);
    }
    EXPECT_EQ(bed.remote_ingress_trace().filter_uids(seconds).size(), 0u) << technique;
  }
}

TEST(FullSuiteSession, AllFourTestsRoundRobin) {
  TestbedConfig cfg;
  cfg.seed = 7200;
  cfg.forward.swap_probability = 0.10;
  cfg.reverse.swap_probability = 0.05;
  cfg.remote = default_remote_config(/*object_size=*/16 * 512);
  cfg.remote.behavior.immediate_ack_on_hole_fill = true;
  Testbed bed{cfg};

  SurveyEngine session{bed.loop()};
  session.add_target("host", bed.probe(), bed.remote_addr(),
                     {TestSpec{"single-connection"}, TestSpec{"dual-connection"}, TestSpec{"syn"},
                      TestSpec{"data-transfer"}});

  TestRunConfig run;
  run.samples = 20;
  const auto& ms = session.run(run, /*rounds=*/4, Duration::millis(200));
  ASSERT_EQ(ms.size(), 16u);
  for (const auto& m : ms) {
    EXPECT_TRUE(m.result.admissible) << m.test << ": " << m.result.note;
  }
  // Every two-way test's forward aggregate should be in the vicinity of
  // the configured rate.
  for (const char* name : {"single-connection", "dual-connection", "syn"}) {
    const auto agg = session.metrics().aggregate("host", name, /*forward=*/true);
    EXPECT_GT(agg.usable(), 60) << name;
    EXPECT_NEAR(agg.rate_or(0.0), 0.10, 0.07) << name;
  }
  // The data-transfer test saw the reverse path only.
  const auto dt = session.metrics().aggregate("host", "data-transfer", /*forward=*/false);
  EXPECT_GT(dt.usable(), 40);
  // Cross-test paired comparison at the paper's confidence level.
  const auto cmp = session.metrics().compare("host", "single-connection", "dual-connection", true);
  EXPECT_TRUE(cmp.null_supported);
}

TEST(FullSuiteSession, InadmissibleHostIsolatedToDualTest) {
  TestbedConfig cfg;
  cfg.seed = 7300;
  cfg.remote = default_remote_config();
  cfg.remote.ipid_policy = tcpip::IpidPolicy::kRandom;
  Testbed bed{cfg};

  SurveyEngine session{bed.loop()};
  session.add_target("host", bed.probe(), bed.remote_addr(),
                     {TestSpec{"dual-connection"}, TestSpec{"syn"}});

  TestRunConfig run;
  run.samples = 10;
  session.run(run, 2, Duration::millis(100));
  EXPECT_TRUE(session.metrics().rate_series("host", "dual-connection", true).empty())
      << "inadmissible measurements must not produce rates";
  EXPECT_EQ(session.metrics().rate_series("host", "syn", true).size(), 2u)
      << "other tests keep working against the same host";
}

}  // namespace
}  // namespace reorder::core
