// The survey service — the repository's one parallel survey runtime, both
// for the paper's finite batch survey (admit the whole fleet, drain) and
// as an always-on daemon.
//
// Targets are ADMITTED continuously — one at a time or in batches, from
// any thread — and each admission is assigned a GLOBAL IDENTITY INDEX.
// Identity is everything: core::pin_global_identity derives the target's
// whole stochastic world (name and address defaults, host RNG, IPID
// origin, path tags) from (service seed, global index), so a target's
// results are byte-identical no matter WHEN it was admitted, WHICH worker
// ran it, or what else was in flight — and therefore identical to one
// event loop running the whole fleet (the placement/admission-order
// invariance tests pin this against that single-loop reference).
//
// Scheduling is a work-stealing deque pool (util::WorkStealingPool):
// each admitted target runs as one world of its own, admissions
// round-robin onto per-worker deques purely as a load hint, and idle
// workers steal from random victims — which is what lets a fleet of
// wildly uneven targets keep every core busy. Steal counters surface in
// snapshots.
//
// Live view: each completed target folds once, as it completes, into one
// fleet-wide MetricEngine and three running totals, under the same short
// admission lock that marks it done. snapshot() reads the counters, the
// totals and the engine's key count under that lock — one consistent
// cut, at a cost independent of fleet size, taken MID-RUN without
// stopping admission. drain() waits for quiescence; stop() additionally
// retires the workers. After drain, metrics() is the merged engine and
// emit_jsonl() produces the canonical JSONL stream: measurements in
// (target, test, at) order, indices renumbered — the stream
// merge_fleet_streams makes of any run over the same fleet.
//
// Emission renders on the same pool. A serial walk over the done targets
// by name fixes each measurement's canonical index and cuts the walk into
// chunks of kEmitChunkTargets targets; workers render each chunk's lines
// into a buffer of its own, a bounded window ahead of the calling thread,
// which writes the buffers strictly in chunk order. The metrics records
// follow the same way. After stop() the same rendering runs inline on the
// caller. The bytes are those of one thread walking the fleet.
//
// Fault tolerance: every completed target is recorded into a
// core::SurveyCheckpoint — one record per target, its line rendered once
// on the worker that ran it, before the short checkpoint lock that files
// it — and a background thread rewrites the file atomically every
// checkpoint_interval, writing the stored lines as they are. restore()
// adopts a prior run's completed targets so only the missing ones re-run,
// carrying their lines into this run's checkpoint unrendered; and
// core::ShardRetryPolicy retries transient per-target failures with
// backoff — exhaustion degrades the survey (full-fleet accounting)
// instead of aborting it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/survey_engine.hpp"
#include "core/survey_testbed.hpp"
#include "metrics/engine.hpp"
#include "report/jsonl.hpp"
#include "util/work_stealing_pool.hpp"

namespace reorder::service {

/// Completion notification (config.on_target_complete), fired on the
/// worker thread that finished the target, outside service locks.
struct TargetDone {
  std::size_t index{0};
  std::string_view name;
  /// Measurements this target contributed.
  std::size_t measurements{0};
  /// The target's final virtual instant.
  util::TimePoint virtual_end{};
  /// Attempts consumed (1 = first try; 0 = adopted from a checkpoint).
  int attempts{1};
};

struct SurveyServiceConfig {
  /// Survey seed: the root every admitted target's identity derives from.
  std::uint64_t seed{1};
  tcpip::Ipv4Address probe_addr{tcpip::Ipv4Address::from_octets(10, 0, 0, 1)};
  /// Worker threads; 0 picks hardware concurrency.
  std::size_t workers{0};
  /// The survey plan every admitted target runs, fixed at construction.
  core::TestRunConfig run{};
  int rounds{1};
  util::Duration between{util::Duration::seconds(1)};
  /// Per-world engine options (retain_samples is derived from
  /// retain_results; faults and suite_factory pass through to every
  /// world, whose one metric engine is what the service merges).
  core::SurveyEngine::Options engine{};
  /// Transient-failure retry policy per target (see ShardRetryPolicy).
  core::ShardRetryPolicy retry{};
  /// When non-empty, completed targets are durably recorded here: a
  /// core::SurveyCheckpoint file (one record per target keyed by its
  /// global index, header.shards == 0; the header also names the plan:
  /// rounds, seed, run.samples and whether records carry sample
  /// payloads, i.e. retain_results), rewritten atomically by a background
  /// thread whenever completions accumulated. Each record is rendered
  /// once, on the worker that completed its target; a save writes the
  /// stored lines. A failed background save is retried at the next
  /// interval; drain() makes the last save and throws if it fails.
  std::string checkpoint_path{};
  /// Background checkpoint cadence (wall clock).
  std::chrono::milliseconds checkpoint_interval{200};
  /// Keep per-measurement logs (with sample payloads) for canonical
  /// emission. Turn off for huge fleets: metrics, counters and
  /// snapshots stay exact, but emit_jsonl()/measurements() are
  /// unavailable — the 1M-target smoke runs this way.
  bool retain_results{true};
  /// Completion callback (worker thread, outside locks). Keep it cheap.
  std::function<void(const TargetDone&)> on_target_complete{};
};

class SurveyService {
 public:
  explicit SurveyService(SurveyServiceConfig config);
  /// stop()s if the caller did not (plan errors are swallowed — call
  /// drain()/stop() yourself to observe them).
  ~SurveyService();

  SurveyService(const SurveyService&) = delete;
  SurveyService& operator=(const SurveyService&) = delete;

  // -------------------------------------------------------- admission
  /// Admits one target at the next free global index and returns that
  /// index. Unset identity fields (name, address, seeds) are pinned from
  /// the index by core::pin_global_identity. Thread-safe; throws
  /// std::invalid_argument on duplicate name or address (fleet-wide) or
  /// when a restored checkpoint record at the index measured a different
  /// target, std::logic_error after stop(). A rejected target leaves no
  /// admission state behind.
  std::size_t admit(core::SurveyTargetConfig target);
  /// Admits one target AT a caller-chosen global index — the admission-
  /// order-invariant form: a fleet admitted in any order with explicit
  /// indices produces byte-identical output. Throws std::invalid_argument
  /// when the index is already taken.
  std::size_t admit(core::SurveyTargetConfig target, std::size_t global_index);
  /// Batched admission at consecutive next-free indices. When a target is
  /// rejected, the ones before it stay admitted (and run), the rest are
  /// not admitted, and the rejection is rethrown.
  std::vector<std::size_t> admit(std::vector<core::SurveyTargetConfig> batch);

  /// Adopts a prior run's completed targets from a checkpoint: when a
  /// matching global index is admitted, its recorded result is folded in
  /// instead of re-running the world. Must be called before the first
  /// admission; a second call adds to the first. Every record is decoded
  /// (its line parsed once) before any is kept. Throws
  /// std::invalid_argument when the checkpoint header disagrees with this
  /// service's plan (the per-target marker shards == 0, rounds, seed,
  /// run.samples, or records without sample payloads when this service
  /// retains results; a lean service adopts either kind) or a record does
  /// not decode (the message names its index and the cause); either way
  /// it records nothing, so stopping leaves the checkpoint file as it
  /// was. Record identity (the target its measurements and metrics name)
  /// is checked at admission. With a checkpoint_path, the restored
  /// records' lines are carried as they are into this service's
  /// checkpoint, whether or not their targets are admitted.
  void restore(const core::SurveyCheckpoint& checkpoint);

  // -------------------------------------------------------- live view
  std::size_t admitted() const { return admitted_.load(); }
  std::size_t completed() const { return completed_.load(); }
  std::size_t failed() const { return failed_.load(); }
  /// Admitted but not yet completed or failed (momentary).
  std::size_t in_flight() const;

  /// A live fleet-wide view taken MID-RUN without stopping admission:
  /// counters, running totals and the merged engine's key count, read
  /// under one short hold of the admission lock. Every completion folds
  /// under that lock too, so the view is one consistent cut: measurements
  /// and metric_keys count exactly the `completed` targets. Merged
  /// metrics are read through metrics() once drained.
  struct Snapshot {
    std::size_t admitted{0};
    std::size_t completed{0};
    std::size_t failed{0};
    std::size_t in_flight{0};
    std::size_t measurements{0};
    /// Max final virtual instant over completed targets.
    util::TimePoint virtual_end{};
    std::size_t workers{0};
    /// Scheduler counters (see WorkStealingPool::Stats). Jobs count every
    /// target attempt run on the pool plus the render jobs of each
    /// emit_jsonl() called before stop().
    std::uint64_t jobs_executed{0};
    std::uint64_t steals{0};
    std::uint64_t steal_attempts{0};
    /// (target, test) keys in the merged metric engine.
    std::size_t metric_keys{0};
    bool degraded{false};

    /// The {"type":"service_snapshot",...} record.
    report::Json to_json() const;
  };
  Snapshot snapshot() const;

  /// Scheduler counters alone, emission's render jobs included (see
  /// Snapshot::jobs_executed). After stop() this returns the final
  /// counters the retired pool reported. Safe to call across stop().
  util::WorkStealingPool::Stats scheduler_stats() const;

  // ---------------------------------------------------------- shutdown
  /// Blocks until every target admitted so far completed or failed, then
  /// durably saves the checkpoint (when enabled) and rethrows the first
  /// plan error (std::invalid_argument — a typo'd survey must not
  /// degrade silently). A checkpoint that cannot be written throws
  /// std::runtime_error; results stay readable. Admission stays open
  /// afterwards: a resident caller may keep admitting and drain again.
  void drain();
  /// drain(), then retires the workers and the checkpoint thread.
  /// Further admissions throw; results stay readable.
  void stop();

  // ------------------------------------- merged results (quiescent API)
  // Callable once drained (throw std::logic_error while targets are in
  // flight). Outputs are canonical: independent of workers, admission
  // order and batch size.
  /// A copy of the merged completion log in canonical (target, test, at)
  /// order. Needs retain_results.
  std::vector<core::Measurement> measurements();
  /// The merged metric engine. This is the live engine every completion
  /// folds into, not a copy: read it before admitting more targets.
  const metrics::MetricEngine& metrics();
  /// The merged survey_end marker (participants, fleet-wide virtual end,
  /// degraded accounting).
  core::SurveyEvent survey_end();

  /// The canonical merged JSONL stream: survey_begin, every measurement's
  /// samples + measurement records with canonically renumbered indices,
  /// survey_end, one metrics record per key in canonical order, plus the
  /// participation manifest when degraded — byte-identical to
  /// merge_fleet_streams over a single-loop run of the same fleet + seed.
  /// Walks the targets by name, each log kept sorted: nothing is copied
  /// or sorted here. Renders in chunks as the header describes, holding
  /// at most kEmitWindowPerWorker chunks per worker at once. A write or
  /// render that throws reaches the caller once every render job it
  /// submitted has finished. Needs retain_results.
  void emit_jsonl(report::JsonlWriter& out);
  /// Targets per emission chunk.
  static constexpr std::size_t kEmitChunkTargets = 16;
  /// Chunks per worker that may render ahead of emission's writer.
  static constexpr std::size_t kEmitWindowPerWorker = 2;

  // ------------------------------------------------ failure accounting
  bool degraded();
  /// Global indices of targets that exhausted every attempt, ascending.
  std::vector<std::size_t> failed_target_indices();
  /// Last-attempt failure message per failed target (parallel to
  /// failed_target_indices()).
  std::vector<std::string> failure_messages();
  /// Attempts consumed by target `index` (0 = adopted from checkpoint).
  int attempts(std::size_t index) const;
  /// Every admitted target in global-index order with whether its
  /// measurements are present — the degraded-run reconciliation manifest.
  std::vector<std::pair<std::string, bool>> participation();

 private:
  struct AdmittedTarget {
    std::string name;
    /// The pinned world description; released after completion (the
    /// resident service would otherwise hold every retired target's
    /// config forever).
    core::SurveyTargetConfig config;
    /// Once done: its completion log (the only copy), in (test, at) order.
    std::vector<core::Measurement> log;
    enum class State { kPending, kDone, kFailed } state{State::kPending};
    int attempts{0};
    std::string error;
  };

  std::size_t admit_one(core::SurveyTargetConfig target,
                        std::optional<std::size_t> explicit_index);
  std::size_t admit_locked(core::SurveyTargetConfig target,
                           std::optional<std::size_t> explicit_index,
                           std::optional<core::ShardRunResult>& adopt);
  void submit_target(std::size_t index);
  void run_target(std::size_t index);
  core::ShardRunResult run_world(std::size_t index, const core::SurveyTargetConfig& cfg) const;
  /// Records (unless adopted), folds and publishes one completed target.
  /// `attempts` == 0 marks a result adopted from a restored checkpoint.
  void complete_target(std::size_t index, core::ShardRunResult result, int attempts);
  void fail_target(std::size_t index, int attempts, std::string error, bool plan_error);
  /// Locks admission_mu_ and requires quiescence (pending_ == 0).
  std::unique_lock<std::mutex> quiescent();
  /// The survey_end marker from the running totals and the failed
  /// targets; caller holds admission_mu_.
  core::SurveyEvent survey_end_locked() const;
  void checkpoint_loop();
  void save_checkpoint_locked();

  SurveyServiceConfig config_;

  // ---- admission state (admission_mu_)
  /// The pool, then (once stop() retired it) its identity and counters.
  std::unique_ptr<util::WorkStealingPool> pool_;
  std::size_t final_workers_{0};
  util::WorkStealingPool::Stats final_stats_{};
  mutable std::mutex admission_mu_;
  std::condition_variable done_cv_;
  std::map<std::size_t, AdmittedTarget> targets_;
  /// Name -> global index: rejects duplicates; walked in emission order.
  std::map<std::string, std::size_t> names_;
  std::set<std::uint32_t> addresses_;
  /// Restored results awaiting the admission of their index.
  std::map<std::size_t, core::ShardRunResult> restored_;
  std::size_t next_index_{0};
  std::size_t pending_{0};
  bool stopped_{false};
  std::exception_ptr plan_error_;
  /// Every completed target folded once: its metrics, and running totals
  /// of its measurements, participants and final virtual instant.
  metrics::MetricEngine merged_;
  std::size_t measurements_{0};
  std::size_t participants_{0};
  util::TimePoint virtual_end_{};

  // ---- counters: written under admission_mu_, also read lock-free
  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> failed_{0};

  // ---- checkpoint state (checkpoint_mu_)
  std::mutex checkpoint_mu_;
  std::condition_variable checkpoint_cv_;
  core::SurveyCheckpoint checkpoint_;
  bool checkpoint_dirty_{false};
  bool checkpoint_stop_{false};
  std::thread checkpoint_thread_;
};

}  // namespace reorder::service
