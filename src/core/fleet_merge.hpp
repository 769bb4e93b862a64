// Offline fold of N independent survey runs into one fleet-wide stream —
// the library behind the `reorder-merge` CLI.
//
// A large survey is operationally many survey_fleet processes (different
// machines, different fleet slices, different days), each leaving one
// canonical JSONL artifact. merge_fleet_streams() folds those artifacts
// into the stream ONE run over the combined fleet would have produced:
// measurement groups re-sorted into the canonical (target, test, at)
// order and renumbered, metric records restored through the metrics
// from_json contract and pooled via merge(), lifecycle records summed,
// degraded-mode accounting (failed_targets, participation) concatenated
// so the combined fleet stays fully accounted for. The golden test pins
// byte-identity against an actual combined run.
#pragma once

#include <vector>

#include "report/json.hpp"
#include "report/jsonl.hpp"

namespace reorder::core {

/// Folds the parsed canonical JSONL streams of N runs into one, returned
/// as its lines. Inputs must be canonical emissions (survey_begin,
/// sample/measurement groups, survey_end, metrics records, optional
/// participation manifest). Throws std::runtime_error on torn inputs (a
/// sample group without its measurement record) and
/// std::invalid_argument on schema violations.
report::JsonlLines merge_fleet_streams(const std::vector<std::vector<report::Json>>& runs);

}  // namespace reorder::core
