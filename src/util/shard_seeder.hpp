// Global-index seed derivation for surveys split across worlds.
//
// The survey service runs every admitted target in a world of its own, on
// whichever worker is free. Every stochastic stream a target owns (its
// host's RNG, its IPID counter, its forward/reverse path stages) must
// therefore be a pure function of the survey seed and the target's
// GLOBAL index — never of the world or worker that runs it, or of what
// else runs beside it. ShardSeeder is that function: a splitmix64 chain
// over (survey_seed, global_index), so a target's whole simulated world
// replays bit-identically whether the fleet shares one event loop or
// runs one world per target.
#pragma once

#include <cstdint>

namespace reorder::util {

/// splitmix64 finalizer (Vigna): the avalanche step that turns structured
/// counters into decorrelated 64-bit streams. Public because tests pin
/// its constants — the derivation scheme is an on-disk contract (recorded
/// seeds must replay across versions). Inline: it sits on per-arrival hot
/// paths (flow-table hashing) as well as per-target seeding.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Everything target-local the survey testbed seeds, derived once per
/// global target index.
struct TargetSeeds {
  std::uint64_t host_seed{0};      ///< remote host RNG (behaviour jitter)
  std::uint16_t ipid_initial{0};   ///< first IPID the remote stamps
  std::uint64_t forward_tag{0};    ///< per-stage RNG tag, forward path
  std::uint64_t reverse_tag{0};    ///< per-stage RNG tag, reverse path
};

class ShardSeeder {
 public:
  explicit ShardSeeder(std::uint64_t survey_seed) : survey_seed_{survey_seed} {}

  std::uint64_t survey_seed() const { return survey_seed_; }

  /// The seeds of the target at `global_index` in the fleet's declaration
  /// order. Pure in (survey_seed, global_index).
  TargetSeeds target(std::uint64_t global_index) const;

 private:
  std::uint64_t survey_seed_;
};

}  // namespace reorder::util
