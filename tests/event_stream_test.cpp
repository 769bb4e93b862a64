// Pins the simulator's executed-event streams. Every canonical scenario
// (at seeds 1 and 23, at its own sample count and at 120) and eight
// survey_batch-shaped worlds are replayed, and the number of events the
// loop ran plus an FNV-1a digest of every (timestamp, seq) pair that
// EventLoop::set_executed_hook reports must equal the recorded values.
// A change to the event loop, a timer, a netsim stage or a protocol state
// machine that only alters cost keeps every stream; one that moves,
// adds or drops a single event fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/survey_engine.hpp"
#include "core/survey_testbed.hpp"
#include "core/testbed.hpp"
#include "util/random.hpp"

namespace reorder::core {
namespace {

/// FNV-1a over the little-endian bytes of each (timestamp ns, seq) pair.
struct StreamDigest {
  std::uint64_t events{0};
  std::uint64_t hash{0xcbf29ce484222325ull};

  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (word >> (8 * i)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  void observe(util::TimePoint at, std::uint64_t seq) {
    ++events;
    add(static_cast<std::uint64_t>(at.ns()));
    add(seq);
  }
};

struct Pinned {
  const char* name;
  std::uint64_t events;
  std::uint64_t hash;
};

std::string describe(const std::string& name, const StreamDigest& d) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"%s\", %llu, 0x%016llxull},", name.c_str(),
                static_cast<unsigned long long>(d.events),
                static_cast<unsigned long long>(d.hash));
  return buf;
}

StreamDigest scenario_stream(const std::string& name, std::uint64_t seed, int samples) {
  ScenarioSpec spec = scenarios::by_name(name, seed);
  if (samples > 0) spec.run.samples = samples;
  Testbed bed{spec.testbed};
  StreamDigest digest;
  bed.loop().set_executed_hook(
      [&digest](util::TimePoint at, std::uint64_t seq) { digest.observe(at, seq); });
  run_scenario(bed, spec);
  return digest;
}

// Recorded from the simulator as of this file's introduction. Key:
// "<scenario>/seed<n>/<samples>", where samples "own" is the scenario's
// default.
constexpr Pinned kScenarioStreams[] = {
    {"clean-path/seed1/own", 1266, 0xba2f891a586c4757ull},
    {"clean-path/seed1/120", 8301, 0x4ec21a62192330e5ull},
    {"clean-path/seed23/own", 1266, 0xba2f891a586c4757ull},
    {"clean-path/seed23/120", 8301, 0x4ec21a62192330e5ull},
    {"evade-window/seed1/own", 597, 0x188a65d2bc24c45dull},
    {"evade-window/seed1/120", 3012, 0x6a4ff8c393cc8a96ull},
    {"evade-window/seed23/own", 597, 0x88a92f09cb24ea59ull},
    {"evade-window/seed23/120", 3012, 0x9d114de5eff7e532ull},
    {"flaky-target/seed1/own", 1209, 0xc7061635e3ba04b0ull},
    {"flaky-target/seed1/120", 7648, 0xb6499c4d02a84ed8ull},
    {"flaky-target/seed23/own", 1190, 0x249cf354da07cc9eull},
    {"flaky-target/seed23/120", 7681, 0xa22bed1dd580435cull},
    {"flood-flows/seed1/own", 729, 0xfecc0d6f0287a721ull},
    {"flood-flows/seed1/120", 5139, 0xef0bf6af6eb436c9ull},
    {"flood-flows/seed23/own", 729, 0xfecc0d6f0287a721ull},
    {"flood-flows/seed23/120", 5139, 0xef0bf6af6eb436c9ull},
    {"interrupt-coalescing/seed1/own", 555, 0x22f9eeb60207d0e2ull},
    {"interrupt-coalescing/seed1/120", 2760, 0x75fd8de2db846ac3ull},
    {"interrupt-coalescing/seed23/own", 555, 0x3aed909e8443edadull},
    {"interrupt-coalescing/seed23/120", 2760, 0xa09b417b0acec547ull},
    {"load-balanced/seed1/own", 729, 0xfecc0d6f0287a721ull},
    {"load-balanced/seed1/120", 5139, 0xef0bf6af6eb436c9ull},
    {"load-balanced/seed23/own", 865, 0x2e188ca5ba5213d0ull},
    {"load-balanced/seed23/120", 6220, 0x825f113a1a938c93ull},
    {"lossy/seed1/own", 820, 0x0eec1379893a09d8ull},
    {"lossy/seed1/120", 5704, 0xd457bf6913c7ef44ull},
    {"lossy/seed23/own", 798, 0xa7ca4f3aa50c711eull},
    {"lossy/seed23/120", 5645, 0xdeab644aa5b0694dull},
    {"random-ipid/seed1/own", 414, 0x4bdb7ae953d7e3c5ull},
    {"random-ipid/seed1/120", 2619, 0x7573288c03da9324ull},
    {"random-ipid/seed23/own", 414, 0x4bdb7ae953d7e3c5ull},
    {"random-ipid/seed23/120", 2619, 0x7573288c03da9324ull},
    {"striped-links/seed1/own", 1515, 0x4bf2f99dc5b1e911ull},
    {"striped-links/seed1/120", 7710, 0x4c03fe439ba2bdabull},
    {"striped-links/seed23/own", 1515, 0x3989a0b0d86df94full},
    {"striped-links/seed23/120", 7710, 0x629e841807a96a82ull},
    {"swap-shaper/seed1/own", 1282, 0x6df4fcd679864b6dull},
    {"swap-shaper/seed1/120", 8308, 0x48199c65fc7295d0ull},
    {"swap-shaper/seed23/own", 1279, 0x93faf166f791762bull},
    {"swap-shaper/seed23/120", 8308, 0x63e1c443842ec2e1ull},
};

TEST(EventStream, ScenariosReplayPinnedStreams) {
  std::string actual;
  std::size_t checked = 0;
  for (const std::string& name : scenarios::names()) {
    for (const std::uint64_t seed : {1u, 23u}) {
      for (const int samples : {0, 120}) {
        const std::string key = name + "/seed" + std::to_string(seed) + "/" +
                                (samples == 0 ? std::string{"own"} : std::to_string(samples));
        const StreamDigest got = scenario_stream(name, seed, samples);
        actual += describe(key, got) + "\n";
        const Pinned* want = nullptr;
        for (const Pinned& p : kScenarioStreams) {
          if (key == p.name) want = &p;
        }
        ++checked;
        if (want == nullptr) {
          ADD_FAILURE() << "no pinned stream for " << key;
          continue;
        }
        EXPECT_EQ(got.events, want->events) << key;
        EXPECT_EQ(got.hash, want->hash) << key;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kScenarioStreams));
  if (HasFailure()) std::printf("%s", actual.c_str());
}

/// The first `count` targets of survey_batch's seed-1 synthetic fleet
/// (perfbench's population: half the paths reorder; single-connection
/// then syn) whose paths reorder, with their fleet indices.
std::vector<std::pair<std::size_t, SurveyTargetConfig>> reordering_targets(std::size_t count) {
  util::Rng population{1};
  std::vector<std::pair<std::size_t, SurveyTargetConfig>> out;
  for (std::size_t index = 0; out.size() < count; ++index) {
    SurveyTargetConfig target;
    target.name = "host-" + std::to_string(index);
    if (!population.bernoulli(0.5)) continue;
    const double fwd = std::min(0.35, population.exponential(0.08));
    target.forward.swap_probability = fwd;
    target.reverse.swap_probability = fwd * population.uniform(0.1, 0.6);
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {TestSpec{"single-connection"}, TestSpec{"syn"}};
    out.emplace_back(index, std::move(target));
  }
  return out;
}

/// Builds and runs one target as its own world, the way the survey
/// service runs each admitted target: 15 samples, one round, a second
/// between measurements.
StreamDigest survey_world_stream(std::size_t index, SurveyTargetConfig target) {
  pin_global_identity(target, index, /*survey_seed=*/1);
  SurveyTestbedConfig world;
  world.seed = 1;
  world.targets.push_back(std::move(target));
  SurveyTestbed bed{std::move(world)};
  StreamDigest digest;
  bed.loop().set_executed_hook(
      [&digest](util::TimePoint at, std::uint64_t seq) { digest.observe(at, seq); });
  SurveyEngine engine{bed.loop()};
  bed.populate(engine);
  TestRunConfig run;
  run.samples = 15;
  engine.run(run, /*rounds=*/1, util::Duration::seconds(1));
  EXPECT_EQ(engine.measurements().size(), 2u);
  return digest;
}

constexpr Pinned kSurveyWorldStreams[] = {
    {"host-2", 560, 0xad7cbc620ea9d354ull},
    {"host-6", 574, 0xbfd2371f43850d7aull},
    {"host-7", 566, 0x7a7eb4407f09124full},
    {"host-8", 568, 0xfcf15b10a8326da0ull},
    {"host-9", 558, 0xa4a9de4d1ca143f7ull},
    {"host-10", 560, 0xa498cdee58fc8c49ull},
    {"host-11", 564, 0x60916c351abbbe9aull},
    {"host-12", 558, 0xa4a9de4d1ca143f7ull},
};

TEST(EventStream, SurveyWorldsReplayPinnedStreams) {
  std::string actual;
  const auto targets = reordering_targets(std::size(kSurveyWorldStreams));
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto& [index, target] = targets[i];
    const StreamDigest got = survey_world_stream(index, target);
    actual += describe(target.name, got) + "\n";
    EXPECT_EQ(target.name, kSurveyWorldStreams[i].name);
    EXPECT_EQ(got.events, kSurveyWorldStreams[i].events) << target.name;
    EXPECT_EQ(got.hash, kSurveyWorldStreams[i].hash) << target.name;
  }
  if (HasFailure()) std::printf("%s", actual.c_str());
}

}  // namespace
}  // namespace reorder::core
