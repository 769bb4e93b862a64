// Declarative description of one direction of an emulated path, and the
// builder that assembles it into a sim::Path. SurveyTestbed, the one world
// builder, assembles every path of every world with it, so every topology
// derives its per-stage RNG streams the same way.
#pragma once

#include <cstdint>
#include <optional>

#include "netsim/coalescer.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/link.hpp"
#include "netsim/path.hpp"
#include "netsim/striped_link.hpp"
#include "netsim/swap_shaper.hpp"
#include "trace/trace.hpp"
#include "util/time.hpp"

namespace reorder::core {

/// One direction of the emulated path.
struct PathSpec {
  sim::LinkParams ingress_link{};   ///< first hop
  sim::LinkParams egress_link{};    ///< last hop
  /// Adjacent-swap probability (dummynet-style shaper); 0 disables.
  double swap_probability{0.0};
  util::Duration swap_max_hold{util::Duration::millis(50)};
  /// Optional striped multi-link segment (time-dependent reordering).
  std::optional<sim::StripedLinkConfig> striped{};
  /// Bernoulli loss probability; 0 disables.
  double loss_probability{0.0};
  /// Optional receive-side interrupt coalescing (bursty delivery with
  /// intra-burst local shuffle); sits after loss, before the egress link.
  std::optional<sim::InterruptCoalescerConfig> coalescer{};
};

/// Runtime handles on the reordering processes a built path contains
/// (null when the spec does not enable them).
struct PathHandles {
  sim::SwapShaper* shaper{nullptr};
  sim::StripedLink* striped{nullptr};
  sim::InterruptCoalescer* coalescer{nullptr};
};

/// Assembles `spec` into `path`: ingress link, optional swap shaper /
/// striped segment / loss stage, egress link, and an optional pre-terminal
/// trace tap. `seed` and `seed_tag` derive the per-stage RNG streams.
PathHandles build_measurement_path(sim::EventLoop& loop, sim::Path& path, const PathSpec& spec,
                                   std::uint64_t seed, std::uint64_t seed_tag,
                                   trace::TraceBuffer* pre_terminal_tap = nullptr,
                                   const char* tap_label = "");

}  // namespace reorder::core
