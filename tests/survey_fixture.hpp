// The survey fleet, plan and reference the survey-service and
// fault-tolerance suites share.
//
// The reference is independent of SurveyService: the whole fleet on ONE
// SurveyTestbed and one event loop, every target pinned to its global
// index, its live completion-order JSONL canonicalized by
// core::merge_fleet_streams. A service run over the same fleet must emit
// these bytes for any worker count, admission order or batch size.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fleet_merge.hpp"
#include "core/survey_testbed.hpp"
#include "metrics/engine.hpp"
#include "report/sinks.hpp"
#include "service/survey_service.hpp"

namespace reorder::survey_fixture {

/// A heterogeneous nine-target fleet: clean, swapping and lossy paths,
/// plus a random-IPID host whose dual test is inadmissible — the
/// canonical stream must reproduce failure records too.
inline std::vector<core::SurveyTargetConfig> nine_targets() {
  std::vector<core::SurveyTargetConfig> targets;
  for (int i = 0; i < 9; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = (i % 3) * 0.11;
    target.reverse.swap_probability = (i % 3) * 0.04;
    if (i == 4) target.forward.loss_probability = 0.02;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    if (i == 7) {
      target.remote.ipid_policy = tcpip::IpidPolicy::kRandom;
      target.tests = {core::TestSpec{"dual-connection"}, core::TestSpec{"syn"}};
    }
    targets.push_back(std::move(target));
  }
  return targets;
}

/// The same fleet named so that names sort against indices (index i is
/// host-(8 - i)): canonical order is by name, and only a fleet like this
/// tells a walk by name from a walk by global index.
inline std::vector<core::SurveyTargetConfig> renamed_targets() {
  std::vector<core::SurveyTargetConfig> targets = nine_targets();
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i].name = "host-" + std::to_string(8 - i);
  }
  return targets;
}

inline constexpr std::uint64_t kSeed = 7;
inline constexpr int kRounds = 2;

inline core::TestRunConfig quick_run() {
  core::TestRunConfig run;
  run.samples = 8;
  return run;
}

inline service::SurveyServiceConfig service_config(std::size_t workers) {
  service::SurveyServiceConfig cfg;
  cfg.seed = kSeed;
  cfg.workers = workers;
  cfg.run = quick_run();
  cfg.rounds = kRounds;
  cfg.between = util::Duration::millis(500);
  return cfg;
}

inline std::string canonical_jsonl(service::SurveyService& service) {
  std::ostringstream text;
  report::JsonlWriter writer{text};
  service.emit_jsonl(writer);
  return text.str();
}

/// A file's bytes.
inline std::string file_bytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return std::string{std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

/// Every per-key snapshot, serialized: suite JSON plus the engine's
/// measurement counters, in the engine's (canonical) key order.
inline std::string snapshot_dump(const metrics::MetricEngine& engine) {
  std::string out;
  for (const auto& [target, test] : engine.keys()) {
    out += target + "/" + test + " n=" + std::to_string(engine.measurements(target, test)) +
           " adm=" + std::to_string(engine.admissible_measurements(target, test)) + " " +
           engine.suite(target, test)->to_json().dump() + "\n";
  }
  return out;
}

struct Reference {
  std::string jsonl;
  std::string snapshots;
  core::SurveyEvent end{};
};

class EndCapture final : public core::ResultSink {
 public:
  void on_survey_end(const core::SurveyEvent& e) override { end = e; }
  core::SurveyEvent end{};
};

/// Runs `fleet` on one event loop and canonicalizes its live stream.
inline Reference single_loop_reference(std::vector<core::SurveyTargetConfig> fleet) {
  core::SurveyTestbedConfig cfg;
  cfg.seed = kSeed;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    core::pin_global_identity(fleet[i], i, kSeed);
    cfg.targets.push_back(std::move(fleet[i]));
  }
  core::SurveyTestbed bed{std::move(cfg)};
  core::SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  std::ostringstream live;
  report::JsonlWriter writer{live};
  report::JsonlResultSink sink{writer};
  engine.add_sink(sink);
  EndCapture end;
  engine.add_sink(end);
  engine.run(quick_run(), kRounds, util::Duration::millis(500));
  engine.metrics().emit_jsonl(writer);

  Reference out;
  out.jsonl = core::merge_fleet_streams({report::read_jsonl_text(live.str())}).text;
  out.snapshots = snapshot_dump(engine.metrics());
  out.end = end.end;
  return out;
}

/// The nine-target fleet's reference, computed once per test binary.
inline const Reference& reference() {
  static const Reference ref = single_loop_reference(nine_targets());
  return ref;
}

/// The renamed fleet's reference, computed once per test binary.
inline const Reference& renamed_reference() {
  static const Reference ref = single_loop_reference(renamed_targets());
  return ref;
}

/// A full clean service run's checkpoint: one record per target. Partial
/// checkpoints (what a killed run leaves) are rebuilt from its records.
inline const core::SurveyCheckpoint& full_checkpoint() {
  static const core::SurveyCheckpoint full = [] {
    // Per-process name: both suites including this fixture may run at once.
    const std::string path =
        testing::TempDir() + "survey_fixture_full_" + std::to_string(::getpid()) + ".ckpt";
    std::remove(path.c_str());
    {
      service::SurveyServiceConfig cfg = service_config(2);
      cfg.checkpoint_path = path;
      service::SurveyService service{cfg};
      service.admit(nine_targets());
      service.stop();
    }
    core::SurveyCheckpoint cp = core::SurveyCheckpoint::load(path);
    std::remove(path.c_str());
    return cp;
  }();
  return full;
}

}  // namespace reorder::survey_fixture
