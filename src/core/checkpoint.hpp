// Checkpoint/resume for the survey service.
//
// The recovery unit is the target: each admitted target runs as its own
// world, pinned to its global fleet index, so a survey interrupted at ANY
// point resumes by re-running exactly the targets whose results were not
// yet durably recorded. A SurveyCheckpoint is that durable record: one
// JSONL file holding a header (header.shards == 0 marks this per-target
// convention) plus one record per completed target, keyed by its global
// index — the target's full-fidelity completion log (every sample
// payload, uids included) and its serialized metric snapshots (restored
// through the metrics from_json contract, so the resumed merge is
// bit-identical to an uninterrupted run's).
//
// Durability discipline:
//   * every save() writes the whole file to `<path>.tmp` and renames it
//     into place — a kill mid-save leaves the previous checkpoint intact;
//   * every record carries an fnv1a64 checksum over its body rendering;
//     load() drops records whose line is torn (unparseable), whose
//     checksum disagrees, or whose index disagrees with its body's, and
//     reports how many it dropped — those targets simply re-run.
//     Corruption costs work, never correctness.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/survey_engine.hpp"
#include "metrics/engine.hpp"
#include "report/json.hpp"
#include "report/jsonl.hpp"

namespace reorder::core {

/// Failure policy for one target's world: how often a failed run is
/// re-attempted and how the waits between attempts grow. Retries apply
/// only to TRANSIENT failures (infrastructure: a worker died, an injected
/// kThrow/kShardAbort with transient=true); deterministic failures
/// (std::invalid_argument, non-transient injected faults) would fail
/// identically every attempt and go straight to the degraded path.
struct ShardRetryPolicy {
  /// Attempts per target including the first (clamped to >= 1). A target
  /// still failing after the last attempt makes the survey degraded.
  int max_attempts{3};
  /// Wall-clock wait before attempt 2; grows by `multiplier` per further
  /// attempt, capped at `max_backoff`. Wall time, not virtual time: the
  /// world is rebuilt afresh each attempt, so virtual time restarts
  /// — only the host needs breathing room.
  std::chrono::milliseconds initial_backoff{1};
  double multiplier{2.0};
  std::chrono::milliseconds max_backoff{50};
};

/// What one completed world leaves behind — the unit a checkpoint records
/// and the merge consumes. A world torn down mid-run left no residue
/// outside itself, so re-running it reproduces this bit-for-bit.
struct ShardRunResult {
  /// The record's index: the target's global fleet index.
  std::size_t shard{0};
  /// The world's completion log, in its loop's completion order, with
  /// per-sample payloads retained.
  std::vector<Measurement> log;
  /// Bit-exact copy of the world's metric accumulators.
  metrics::MetricEngine metrics;
  /// The world's survey_end marker (participants + final virtual time).
  SurveyEvent end{};
};

/// Full-fidelity measurement codec — unlike the emission schema (which
/// drops packet uids and per-sample payloads are summarized), this
/// round-trips a Measurement exactly, so a restored log replays
/// byte-identical JSONL.
report::Json measurement_to_json(const Measurement& m);
Measurement measurement_from_json(const report::Json& j);

class SurveyCheckpoint {
 public:
  /// Identity of the run a checkpoint belongs to. SurveyService::restore
  /// refuses a checkpoint whose header disagrees with its plan — restored
  /// results are only valid for the exact same plan.
  struct Header {
    /// Record granularity marker: 0 = one record per target, the only
    /// convention restore() accepts (non-zero was the per-shard format).
    std::size_t shards{0};
    std::size_t targets{0};
    int rounds{0};
    std::uint64_t seed{0};
  };

  SurveyCheckpoint() = default;

  void set_header(const Header& h) { header_ = h; }
  const std::optional<Header>& header() const { return header_; }

  bool has_shard(std::size_t shard) const { return shards_.count(shard) != 0; }
  std::size_t completed_count() const { return shards_.size(); }
  /// Recorded indices (global target indices), ascending.
  std::vector<std::size_t> completed_shards() const;

  /// Records one completed target's results at index `result.shard`
  /// (replacing any prior record there). `attempts` is the retry
  /// accounting that produced the result — bookkeeping for the
  /// degraded-mode report, not identity.
  void record_shard(const ShardRunResult& result, int attempts = 1);
  /// Rebuilds the results recorded at `shard` (log via the measurement
  /// codec, metrics via the from_json restore contract). Throws
  /// std::out_of_range when nothing is recorded there.
  ShardRunResult restore_shard(std::size_t shard) const;
  int attempts(std::size_t shard) const;

  /// Serializes to JSONL text (header line first, then one shard_done
  /// record per index in ascending order, each carrying its body
  /// checksum).
  std::string serialize() const;
  /// Atomically (tmp + rename) writes serialize() to `path`.
  void save(const std::string& path) const;

  /// Parses checkpoint JSONL, dropping torn lines, checksum-failed
  /// records and records whose line `shard` differs from their body's
  /// (all counted in torn_records()). A missing file loads as an empty
  /// checkpoint — resume from nothing is a plain run. A corrupt record
  /// costs only its target, but the header names the plan every record
  /// belongs to: a header with a missing field or a bad value rejects the
  /// whole file with std::runtime_error naming `path`.
  static SurveyCheckpoint load(const std::string& path);
  /// Records dropped by load() because they were torn or corrupt — the
  /// targets that will re-run.
  std::size_t torn_records() const { return torn_; }

 private:
  struct ShardRecord {
    report::Json body;  ///< {"shard":..,"attempts":..,"end":..,"log":[..],"metrics":[..]}
  };

  /// The one rendering of the file, line by line, that serialize() and
  /// save() share.
  void write_lines(report::JsonlWriter& writer) const;

  std::optional<Header> header_;
  std::map<std::size_t, ShardRecord> shards_;
  std::size_t torn_{0};
};

}  // namespace reorder::core
