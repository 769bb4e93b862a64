#include "core/testbed.hpp"

#include <memory>
#include <optional>

namespace reorder::core {

namespace {

/// The one-target world a Testbed is: the remote at 10.0.0.2, host seed
/// seed*1000+1 from IPID 1, path tags 0x11/0x22, ground truth captured.
/// Every bench artifact is a function of this identity, so it is fixed
/// here rather than derived from the target's index.
SurveyTestbedConfig one_target_world(TestbedConfig config) {
  SurveyTargetConfig target;
  target.name = "remote";
  target.address = tcpip::Ipv4Address::from_octets(10, 0, 0, 2);
  target.remote = std::move(config.remote);
  target.backends = config.backends;
  target.capture = true;
  target.forward = std::move(config.forward);
  target.reverse = std::move(config.reverse);
  target.host_seed = config.seed * 1000 + 1;
  target.ipid_initial = 1;
  target.forward_path_tag = 0x11;
  target.reverse_path_tag = 0x22;

  SurveyTestbedConfig world;
  world.seed = config.seed;
  world.scheduler = config.scheduler;
  world.targets.push_back(std::move(target));
  return world;
}

}  // namespace

Testbed::Testbed(TestbedConfig config) : SurveyTestbed{one_target_world(std::move(config))} {}

TestRunResult Testbed::run_sync(ReorderTest& test, const TestRunConfig& config,
                                std::int64_t deadline_s) {
  // The completion slot is shared with the callback, not a stack reference:
  // a run abandoned at the deadline keeps running until its test starts
  // another run or is destroyed, and a test outside the registry may
  // complete on its own schedule whatever happens, so a completion can
  // fire during a LATER run_sync on the same loop — it must land in this
  // orphaned (heap) slot and be discarded, not scribble over a dead stack
  // frame.
  auto out = std::make_shared<std::optional<TestRunResult>>();
  test.run(config, [out](TestRunResult r) {
    if (!out->has_value()) *out = std::move(r);
  });
  loop().run_while(loop().now() + util::Duration::seconds(deadline_s),
                   [&out] { return !out->has_value(); });
  if (!out->has_value()) {
    // Poison the slot so the late completion above is dropped rather than
    // resurrected by a future reader.
    out->emplace();
    TestRunResult r;
    r.test_name = test.name();
    r.admissible = false;
    r.note = "test did not complete (event queue drained or deadline)";
    return r;
  }
  return std::move(**out);
}

}  // namespace reorder::core
