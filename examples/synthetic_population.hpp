// The synthetic host population survey_fleet and survey_service draw.
//
// Both examples take it from here, so the same --targets/--seed/
// --reordering-fraction flags name the same fleet in either binary: CI
// byte-compares survey_service's canonical JSONL against survey_fleet's
// single-loop run over it, canonicalized by reorder-merge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/survey_testbed.hpp"
#include "util/random.hpp"

namespace reorder::examples {

/// `targets` hosts named host-<i>, each running the single-connection and
/// SYN tests. A `reordering_fraction` share of paths reorder at all: a
/// forward swap probability drawn from an exponential (mean 0.08, capped
/// at 0.35) and a reverse one at 10–60% of it. Identity fields are left
/// unset for pinning from each target's global index.
inline std::vector<core::SurveyTargetConfig> synthetic_population(std::int64_t targets,
                                                                  std::uint64_t seed,
                                                                  double reordering_fraction) {
  util::Rng population{seed};
  std::vector<core::SurveyTargetConfig> out;
  out.reserve(static_cast<std::size_t>(targets));
  for (std::int64_t i = 0; i < targets; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    if (population.bernoulli(reordering_fraction)) {
      const double fwd = std::min(0.35, population.exponential(0.08));
      target.forward.swap_probability = fwd;
      target.reverse.swap_probability = fwd * population.uniform(0.1, 0.6);
    }
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    out.push_back(std::move(target));
  }
  return out;
}

}  // namespace reorder::examples
