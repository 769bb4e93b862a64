// The common interface of the paper's four measurement techniques.
#pragma once

#include <functional>
#include <string>

#include "core/verdict.hpp"

namespace reorder::core {

/// An asynchronous measurement technique bound to one target host. run()
/// starts the probe exchange on the event loop and invokes `done` at most
/// once, with the completed result.
///
/// A test owns its one current run, and the run owns everything it put
/// into the world: its connections, flow registrations and pending
/// events. A run's pending events are its sim::Timers, which cancel
/// when the run ends. So the test must not outlive the probe host and
/// event loop it was built on.
class ReorderTest {
 public:
  /// Ends the current run, if any: it stops where it is and its `done`
  /// never fires.
  virtual ~ReorderTest() = default;

  virtual std::string name() const = 0;

  /// Starts a run. One run at a time: starting a run ends the previous
  /// one, which then never completes (a caller that gave up on it, such
  /// as a watchdog, drops it this way). Never call run() from inside
  /// `done`: completion can fire inside the finishing run's own packet
  /// handler, which must not be freed there. Schedule the next run as
  /// an event of its own instead, as SurveyEngine does.
  virtual void run(const TestRunConfig& config, std::function<void(TestRunResult)> done) = 0;
};

}  // namespace reorder::core
