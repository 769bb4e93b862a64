// Checkpoint/resume for the survey service.
//
// The recovery unit is the target: each admitted target runs as its own
// world, pinned to its global fleet index, so a survey interrupted at ANY
// point resumes by re-running exactly the targets whose results were not
// yet durably recorded. A SurveyCheckpoint is that durable record: one
// JSONL file holding a header plus one record per completed target, keyed
// by its global index — the target's full-fidelity completion log (every
// sample payload, uids included, unless the service is lean) and its
// serialized metric snapshots (restored through the metrics from_json
// contract, so the resumed merge is bit-identical to an uninterrupted
// run's). The header carries the plan the records were measured under:
// rounds, seed, samples per measurement and whether the records carry
// sample payloads, plus header.shards == 0, the per-target convention.
//
// A record is held in one form only: its final `shard_done` line. The
// line is rendered once — by render(), on whatever thread finished the
// target, or by load() re-dumping the line it accepted (for a file this
// code wrote, the same bytes) — and every later save() writes it as it
// is. Decoding a record back into results parses its line once.
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

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/survey_engine.hpp"
#include "metrics/engine.hpp"
#include "report/json.hpp"
#include "report/jsonl.hpp"

namespace reorder::core {

/// Failure policy for one target's world: how often a failed run is
/// re-attempted (the waits between attempts are the service's fixed
/// backoff schedule). Retries apply only to TRANSIENT failures
/// (infrastructure: a worker died, an injected kThrow/kShardAbort with
/// transient=true); deterministic failures (std::invalid_argument,
/// non-transient injected faults) would fail identically every attempt
/// and go straight to the degraded path.
struct ShardRetryPolicy {
  /// Attempts per target including the first (clamped to >= 1). A target
  /// still failing after the last attempt makes the survey degraded.
  int max_attempts{3};
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
/// byte-identical JSONL. The checkpoint writes it straight into a
/// record's body; measurement_from_json reads one back from the tree.
void write_measurement_json(report::JsonWriter& w, const Measurement& m);
Measurement measurement_from_json(const report::Json& j);

class SurveyCheckpoint {
 public:
  /// Identity of the run a checkpoint belongs to: the plan its records
  /// were measured under. SurveyService::restore refuses a checkpoint
  /// whose header disagrees with its plan — restored results are only
  /// valid for the exact same plan.
  struct Header {
    /// Record granularity marker: 0 = one record per target, the only
    /// convention restore() accepts (non-zero was the per-shard format).
    std::size_t shards{0};
    std::size_t targets{0};
    int rounds{0};
    std::uint64_t seed{0};
    /// Samples per measurement (the plan's run.samples).
    int samples{0};
    /// Whether every record carries its per-sample payloads: false for
    /// a lean service's file, whatever records it carried in.
    bool sample_payloads{false};
  };

  SurveyCheckpoint() = default;

  void set_header(const Header& h) { header_ = h; }
  const std::optional<Header>& header() const { return header_; }

  /// One completed target's record: its `shard_done` line, rendered
  /// once. Only render() and load() make one.
  class Record {
   public:
    /// Rebuilds the results the line records (log via the measurement
    /// codec, metrics via the from_json restore contract), parsing the
    /// line once. Throws when any field of the record's body does not
    /// decode, its `attempts` included.
    ShardRunResult decode() const;

   private:
    friend class SurveyCheckpoint;
    Record(std::size_t shard, report::JsonlLines line) : shard_{shard}, line_{std::move(line)} {}

    std::size_t shard_;
    report::JsonlLines line_;  ///< the line as save() writes it, newline included
  };

  /// Renders one completed target's record. `attempts` is the retry
  /// accounting that produced the result — bookkeeping for the
  /// degraded-mode report, not identity. Touches no checkpoint, so any
  /// thread may render while another saves.
  static Record render(const ShardRunResult& result, int attempts = 1);
  /// Stores `record` at its index, replacing any prior record there.
  void record(Record record);
  /// record(render(result, attempts)).
  void record_shard(const ShardRunResult& result, int attempts = 1);

  bool has_shard(std::size_t shard) const { return shards_.count(shard) != 0; }
  std::size_t completed_count() const { return shards_.size(); }
  /// Recorded indices (global target indices), ascending.
  std::vector<std::size_t> completed_shards() const;
  /// The records by index, ascending.
  const std::map<std::size_t, Record>& records() const { return shards_; }

  /// The results recorded at `shard` (Record::decode). Throws
  /// std::out_of_range when nothing is recorded there.
  ShardRunResult restore_shard(std::size_t shard) const;
  /// The attempts recorded at `shard`, read by parsing its line.
  int attempts(std::size_t shard) const;

  /// Serializes to JSONL text (header line first, then each record's
  /// shard_done line, as rendered, in ascending index order).
  std::string serialize() const;
  /// Atomically (tmp + rename) writes serialize() to `path`.
  void save(const std::string& path) const;

  /// Parses checkpoint JSONL, dropping torn lines, checksum-failed
  /// records and records whose line `shard` differs from their body's
  /// (all counted in torn_records()). Each accepted record is held as
  /// its re-dumped line. A missing file loads as an empty
  /// checkpoint — resume from nothing is a plain run. A corrupt record
  /// costs only its target, but the header names the plan every record
  /// belongs to: a header with a missing field or a bad value rejects the
  /// whole file with std::runtime_error naming `path`.
  static SurveyCheckpoint load(const std::string& path);
  /// Records dropped by load() because they were torn or corrupt — the
  /// targets that will re-run.
  std::size_t torn_records() const { return torn_; }

 private:
  /// The file, line by line, that serialize() and save() share: the
  /// header rendered fresh, then every record's stored line.
  void write_lines(report::JsonlWriter& writer) const;

  std::optional<Header> header_;
  std::map<std::size_t, Record> shards_;
  std::size_t torn_{0};
};

}  // namespace reorder::core
