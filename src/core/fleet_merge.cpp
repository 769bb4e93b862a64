#include "core/fleet_merge.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "core/result_sink.hpp"
#include "metrics/engine.hpp"
#include "report/sinks.hpp"

namespace reorder::core {

namespace {

/// One measurement and its sample lines, reassembled from a stream (the
/// records stay in the caller's input).
struct Group {
  std::string target;
  std::string test;
  std::int64_t at_ns{0};
  std::vector<const report::Json*> samples;
  const report::Json* measurement{nullptr};
};

/// Writes a sample or measurement record as it came in, its `measurement`
/// index replaced by the fleet-wide `index`.
void write_renumbered(report::JsonWriter& w, const report::Json& record, std::size_t index) {
  w.begin_object();
  for (const auto& [key, value] : record.members()) {
    w.key(key);
    if (key == "measurement") {
      w.number(index);
    } else {
      w.value(value);
    }
  }
  w.end_object();
}

}  // namespace

report::JsonlLines merge_fleet_streams(const std::vector<std::vector<report::Json>>& runs) {
  std::vector<Group> groups;
  metrics::MetricEngine merged_metrics;
  SurveyEvent begin{};
  SurveyEvent end{};
  std::vector<const report::Json*> participation_entries;
  bool any_participation = false;

  for (const std::vector<report::Json>& run : runs) {
    // Sample lines reference their measurement by the RUN-local index;
    // regroup on it before the fleet-wide renumbering erases it.
    std::map<std::tuple<std::string, std::string, std::int64_t>, std::size_t> local;
    metrics::MetricEngine run_metrics;
    for (const report::Json& record : run) {
      const std::string& type = record.at("type").as_string();
      if (type == "survey_begin") {
        begin.targets += static_cast<std::size_t>(record.at("targets").as_u64());
        begin.rounds = std::max(begin.rounds, record.at("rounds").as_i32());
        continue;
      }
      if (type == "sample" || type == "measurement") {
        const std::tuple<std::string, std::string, std::int64_t> key{
            record.at("target").as_string(), record.at("test").as_string(),
            record.at("measurement").as_int()};
        auto [it, fresh] = local.try_emplace(key, groups.size());
        if (fresh) {
          Group g;
          g.target = std::get<0>(key);
          g.test = std::get<1>(key);
          groups.push_back(std::move(g));
        }
        Group& g = groups[it->second];
        if (type == "sample") {
          g.samples.push_back(&record);
        } else {
          g.measurement = &record;
          g.at_ns = record.at("at_ns").as_int();
        }
        continue;
      }
      if (type == "survey_end") {
        end.targets += static_cast<std::size_t>(record.at("targets").as_u64());
        end.rounds = std::max(end.rounds, record.at("rounds").as_i32());
        end.at = std::max(end.at, util::TimePoint::from_ns(record.at("at_ns").as_int()));
        // Pre-degradation artifacts lack the accounting tail; treat them
        // as clean full-participation runs.
        const report::Json* degraded = record.find("degraded");
        if (degraded != nullptr && degraded->as_bool()) {
          end.degraded = true;
          end.failed_shards += static_cast<std::size_t>(record.at("failed_shards").as_u64());
          for (const report::Json& name : record.at("failed_targets").items()) {
            end.failed_targets.push_back(name.as_string());
          }
        }
        continue;
      }
      if (type == "metrics") {
        run_metrics.restore_record(record);
        continue;
      }
      if (type == "participation") {
        any_participation = true;
        for (const report::Json& entry : record.at("targets").items()) {
          participation_entries.push_back(&entry);
        }
        continue;
      }
      throw std::invalid_argument{"merge_fleet_streams: unknown record type '" + type + "'"};
    }
    // Pool the run's snapshots; keys shared across runs (the same target
    // measured twice) merge suite-wise via the bit-exact merge contract.
    merged_metrics.merge(run_metrics);
  }

  for (const Group& g : groups) {
    if (g.measurement == nullptr) {
      throw std::runtime_error{"merge_fleet_streams: sample lines for '" + g.target + "/" +
                               g.test + "' have no measurement record (torn input?)"};
    }
  }

  // The canonical (target, test, at) order, then renumber measurement
  // indices in it — the same erasure of run/shard bookkeeping the sharded
  // engine's merge performs.
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return std::tie(a.target, a.test, a.at_ns) < std::tie(b.target, b.test, b.at_ns);
  });

  report::JsonlLines out;
  begin.measurements = 0;
  begin.at = util::TimePoint::epoch();
  out.append_line(
      [&](report::JsonWriter& w) { report::write_survey_event(w, "survey_begin", begin); });
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const Group& g = groups[i];
    for (const report::Json* s : g.samples) {
      out.append_line([&](report::JsonWriter& w) { write_renumbered(w, *s, i); });
    }
    out.append_line([&](report::JsonWriter& w) { write_renumbered(w, *g.measurement, i); });
  }
  end.measurements = groups.size();
  out.append_line(
      [&](report::JsonWriter& w) { report::write_survey_event(w, "survey_end", end); });

  merged_metrics.append_records(out);

  if (any_participation) {
    out.append_line([&](report::JsonWriter& w) {
      w.begin_object().key("type").string("participation").key("targets").begin_array();
      for (const report::Json* entry : participation_entries) w.value(*entry);
      w.end_array().end_object();
    });
  }
  return out;
}

}  // namespace reorder::core
