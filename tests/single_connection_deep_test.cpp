// Deep behavioural tests for the Single Connection Test: both send-order
// variants against both delayed-ACK stack behaviours, reverse-path
// detection, loss handling, gap parameter, and ground-truth agreement.
#include <gtest/gtest.h>

#include "core/test_registry.hpp"
#include "core/testbed.hpp"
#include "trace/analyzer.hpp"

namespace reorder::core {
namespace {

using util::Duration;

TEST(SingleConnDeep, InOrderVariantAmbiguousOnDelayedAckStack) {
  // Paper §III-B: with samples sent in order and a stack that treats the
  // hole-filling segment as ordinary in-order data, the receiver coalesces
  // into a lone final ACK and the sample is unusable.
  TestbedConfig cfg;
  cfg.seed = 101;
  Testbed bed{cfg};  // default stack: immediate_ack_on_hole_fill = false
  SingleConnectionOptions opts;
  opts.reversed_order = false;
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection", 0, opts});
  TestRunConfig run;
  run.samples = 10;
  const auto result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible);
  EXPECT_EQ(result.forward.ambiguous, 10)
      << "delayed-ACK coalescing must make every clean-path in-order sample ambiguous";
}

TEST(SingleConnDeep, InOrderVariantWorksOnRfc5681Stack) {
  TestbedConfig cfg;
  cfg.seed = 102;
  cfg.remote = default_remote_config();
  cfg.remote.behavior.immediate_ack_on_hole_fill = true;
  Testbed bed{cfg};
  SingleConnectionOptions opts;
  opts.reversed_order = false;
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection", 0, opts});
  TestRunConfig run;
  run.samples = 10;
  const auto result = bed.run_sync(*test, run);
  EXPECT_EQ(result.forward.in_order, 10)
      << "a hole-fill-ACKing stack resolves the in-order variant";
  EXPECT_EQ(result.reverse.in_order, 10);
}

TEST(SingleConnDeep, ReversedVariantDetectsForwardReordering) {
  TestbedConfig cfg;
  cfg.seed = 103;
  cfg.forward.swap_probability = 1.0;
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection"});
  TestRunConfig run;
  run.samples = 10;
  const auto result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible);
  // Reversed variant + forward swap -> samples arrive "in natural order"
  // at the receiver -> lone final ACK -> reported reordered (paper's
  // loss-aliased interpretation).
  EXPECT_EQ(result.forward.reordered, 10);
}

TEST(SingleConnDeep, ReversedVariantStrictModeReportsAmbiguous) {
  TestbedConfig cfg;
  cfg.seed = 104;
  cfg.forward.swap_probability = 1.0;
  Testbed bed{cfg};
  SingleConnectionOptions opts;
  opts.lone_final_ack_is_reordered = false;
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection", 0, opts});
  TestRunConfig run;
  run.samples = 8;
  const auto result = bed.run_sync(*test, run);
  EXPECT_EQ(result.forward.ambiguous, 8);
  EXPECT_EQ(result.forward.reordered, 0);
}

TEST(SingleConnDeep, DetectsReverseReordering) {
  TestbedConfig cfg;
  cfg.seed = 105;
  cfg.reverse.swap_probability = 1.0;
  // A stack that delays the hole-fill ACK spaces the two ACKs ~200 ms
  // apart — further than any adjacent-swap process reaches — so use the
  // RFC 5681 behaviour, under which the ACK pair leaves back-to-back.
  cfg.remote = default_remote_config();
  cfg.remote.behavior.immediate_ack_on_hole_fill = true;
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection"});
  TestRunConfig run;
  run.samples = 10;
  const auto result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible);
  EXPECT_GE(result.reverse.reordered, 8);
  EXPECT_EQ(result.forward.in_order, result.reverse.reordered + result.reverse.in_order)
      << "forward verdicts stay usable while the ACK pair is exchanged";
}

TEST(SingleConnDeep, DelayedHoleFillAckDefeatsReverseMeasurement) {
  // The counterpart of the test above: the default stack's delayed
  // hole-fill ACK separates the ACK pair by the delayed-ACK timeout, so
  // an adjacent-swap process never exchanges them — the reverse verdicts
  // stay in-order (correctly: the ACKs genuinely were not reordered).
  TestbedConfig cfg;
  cfg.seed = 111;
  cfg.reverse.swap_probability = 1.0;
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection"});
  TestRunConfig run;
  run.samples = 8;
  const auto result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible);
  EXPECT_EQ(result.reverse.reordered, 0);
  EXPECT_EQ(result.reverse.in_order, 8);
}

TEST(SingleConnDeep, LossMakesSamplesDiscarded) {
  TestbedConfig cfg;
  cfg.seed = 106;
  cfg.forward.loss_probability = 0.35;
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection"});
  TestRunConfig run;
  run.samples = 20;
  const auto result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible) << result.note;
  EXPECT_EQ(static_cast<int>(result.samples.size()), 20);
  EXPECT_GT(result.forward.lost + result.forward.reordered + result.forward.ambiguous, 0)
      << "35% loss must impair some samples";
  EXPECT_GT(result.forward.in_order, 0) << "...but not all of them";
}

TEST(SingleConnDeep, GapParameterSpacesSamplePackets) {
  TestbedConfig cfg;
  cfg.seed = 107;
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection"});
  TestRunConfig run;
  run.samples = 5;
  run.inter_packet_gap = Duration::micros(300);
  const auto result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible);
  EXPECT_EQ(result.forward.in_order, 5);
  // Verify on the wire: each sample pair's arrivals at the remote must be
  // >= 300us apart (serialization adds a little more).
  for (const auto& s : result.samples) {
    const auto& buf = bed.remote_ingress_trace();
    util::TimePoint first_at;
    util::TimePoint second_at;
    for (const auto& rec : buf.records()) {
      if (rec.packet.uid == s.fwd_uid_first) first_at = rec.at;
      if (rec.packet.uid == s.fwd_uid_second) second_at = rec.at;
    }
    EXPECT_GE((second_at - first_at).ns(), Duration::micros(300).ns());
    EXPECT_EQ(s.gap.ns(), Duration::micros(300).ns());
  }
}

TEST(SingleConnDeep, VerdictsMatchGroundTruthUnderModerateSwaps) {
  TestbedConfig cfg;
  cfg.seed = 108;
  cfg.forward.swap_probability = 0.3;
  cfg.reverse.swap_probability = 0.2;
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection"});
  TestRunConfig run;
  run.samples = 60;
  const auto result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible);
  int checked = 0;
  for (const auto& s : result.samples) {
    if (s.forward != Ordering::kInOrder && s.forward != Ordering::kReordered) continue;
    // The reversed variant reports "reordered" for lone final ACKs; those
    // have no reverse uids and are skipped from exact matching when the
    // ACK evidence is incomplete.
    const auto truth =
        trace::pair_ground_truth(bed.remote_ingress_trace(), s.fwd_uid_first, s.fwd_uid_second);
    if (truth == trace::PairGroundTruth::kIncomplete) continue;
    const bool said_reordered = s.forward == Ordering::kReordered;
    const bool was_reordered = truth == trace::PairGroundTruth::kReordered;
    EXPECT_EQ(said_reordered, was_reordered) << "sample " << checked;
    ++checked;
  }
  EXPECT_GT(checked, 30) << "most samples must be verifiable";
}

TEST(SingleConnDeep, ConnectFailureIsInadmissible) {
  TestbedConfig cfg;
  cfg.seed = 109;
  cfg.forward.loss_probability = 1.0;
  Testbed bed{cfg};
  SingleConnectionOptions opts;
  opts.connection.max_syn_retries = 1;
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection", 0, opts});
  TestRunConfig run;
  run.samples = 3;
  const auto result = bed.run_sync(*test, run);
  EXPECT_FALSE(result.admissible);
  EXPECT_EQ(result.note, "connect failed");
}

TEST(SingleConnDeep, NamesReflectVariant) {
  TestbedConfig cfg;
  Testbed bed{cfg};
  SingleConnectionOptions inorder;
  inorder.reversed_order = false;
  EXPECT_EQ(make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection", 9})
                ->name(),
            "single-connection");
  EXPECT_EQ(make_registered_test(bed.probe(), bed.remote_addr(),
                                 TestSpec{"single-connection", 9, inorder})
                ->name(),
            "single-connection-inorder");
  // The registered in-order variant forces the flag without options.
  EXPECT_EQ(make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-inorder"})
                ->name(),
            "single-connection-inorder");
}

TEST(SingleConnDeep, RemoteConnectionIsClosedAfterRun) {
  TestbedConfig cfg;
  cfg.seed = 110;
  Testbed bed{cfg};
  auto test = make_registered_test(bed.probe(), bed.remote_addr(), TestSpec{"single-connection"});
  TestRunConfig run;
  run.samples = 3;
  const auto result = bed.run_sync(*test, run);
  ASSERT_TRUE(result.admissible);
  bed.loop().run();
  EXPECT_EQ(bed.remote().active_connections(), 0u) << "polite close must tear down the remote";
  EXPECT_EQ(bed.probe().registered_flows(), 0u) << "a completed run releases its connection";
}

}  // namespace
}  // namespace reorder::core
