// Deserialization side of the metrics library: rebuild metrics, suites,
// and whole engines from their write_json() renderings — the layer the
// checkpoint/resume path and the reorder-merge tool stand on.
//
// A restored accumulator is a drop-in peer of a live one: merging it and
// then rendering is bit-identical to having merged the original (the
// from_json contract in metric.hpp, property-tested per metric). Suites
// restore in member order, so a restored suite's composition matches the
// factory-built suite it was snapshotted from and MetricSuite::merge's
// composition check passes.
#pragma once

#include <memory>
#include <string_view>

#include "metrics/metric.hpp"

namespace reorder::metrics {

/// Default-constructs the library metric registered under `name` (every
/// metric in src/metrics is registered); throws std::invalid_argument
/// for an unknown name. Configuration a default constructor cannot know
/// (histogram binning, RD threshold) is carried inside the metric's own
/// JSON and applied by its from_json.
std::unique_ptr<Metric> make_metric(std::string_view name);

/// Rebuilds a suite from a parsed MetricSuite::write_json() rendering:
/// one member per JSON key, in key order, each restored via its
/// from_json.
MetricSuite suite_from_json(const report::Json& j);

}  // namespace reorder::metrics
