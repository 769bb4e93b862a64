#include "core/checkpoint.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "metrics/engine.hpp"
#include "report/sinks.hpp"
#include "util/fault_injector.hpp"

namespace reorder::core {

namespace {

/// Checksum a record body by its rendering. The rendering is a pure
/// function of the record, whose field order the codec fixes, so the
/// checksum is stable across processes — and fnv1a64 is already this
/// repo's on-disk hash (the fault-injector site hash documents the
/// constants).
std::string body_crc(std::string_view body) {
  const std::uint64_t h = util::fnv1a64(body);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return std::string{buf};
}

/// The record line for the body rendered as `body`:
/// {"type":"shard_done","shard":..,"crc":..,"body":..}, newline
/// included, built around the body text, in a buffer of exactly its size.
report::JsonlLines shard_done_line(std::size_t shard, std::string_view body) {
  std::string head;
  report::JsonWriter{head}
      .begin_object()
      .key("type").string("shard_done")
      .key("shard").u64(shard)
      .key("crc").string(body_crc(body))
      .key("body");
  std::string line;
  line.reserve(head.size() + body.size() + 2);
  line.append(head).append(body).append("}\n");
  return report::JsonlLines{std::move(line), 1};
}

/// Parses a stored record line. Only render() and load() store lines,
/// both rendered by JsonWriter, so a failure here is a defect, not input.
report::Json parse_line(const report::JsonlLines& line) {
  std::optional<report::Json> parsed = report::Json::parse(line.text);
  if (!parsed) throw std::logic_error{"SurveyCheckpoint: a stored record line does not parse"};
  return std::move(*parsed);
}

void write_sample_json(report::JsonWriter& w, const SampleResult& s) {
  w.begin_object()
      .key("fwd").string(to_string(s.forward))
      .key("rev").string(to_string(s.reverse))
      .key("started_ns").number(s.started.ns())
      .key("completed_ns").number(s.completed.ns())
      .key("gap_ns").number(s.gap.ns())
      .key("fwd_uid_first").u64(s.fwd_uid_first)
      .key("fwd_uid_second").u64(s.fwd_uid_second)
      .key("rev_uid_first").u64(s.rev_uid_first)
      .key("rev_uid_second").u64(s.rev_uid_second)
      .end_object();
}

SampleResult sample_from_json(const report::Json& j) {
  SampleResult s;
  s.forward = ordering_from_string(j.at("fwd").as_string());
  s.reverse = ordering_from_string(j.at("rev").as_string());
  s.started = util::TimePoint::from_ns(j.at("started_ns").as_int());
  s.completed = util::TimePoint::from_ns(j.at("completed_ns").as_int());
  s.gap = util::Duration::nanos(j.at("gap_ns").as_int());
  s.fwd_uid_first = j.at("fwd_uid_first").as_u64();
  s.fwd_uid_second = j.at("fwd_uid_second").as_u64();
  s.rev_uid_first = j.at("rev_uid_first").as_u64();
  s.rev_uid_second = j.at("rev_uid_second").as_u64();
  return s;
}

void write_end_json(report::JsonWriter& w, const SurveyEvent& e) {
  w.begin_object()
      .key("targets").u64(e.targets)
      .key("rounds").number(e.rounds)
      .key("measurements").u64(e.measurements)
      .key("at_ns").number(e.at.ns())
      .end_object();
}

/// The `shard` index a record line or body names; nullopt when absent or
/// not a u64.
std::optional<std::size_t> record_index(const report::Json& j) {
  const report::Json* shard = j.find("shard");
  if (shard == nullptr) return std::nullopt;
  try {
    return static_cast<std::size_t>(shard->as_u64());
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

SurveyEvent end_from_json(const report::Json& j) {
  SurveyEvent e;
  e.targets = static_cast<std::size_t>(j.at("targets").as_u64());
  e.rounds = j.at("rounds").as_i32();
  e.measurements = static_cast<std::size_t>(j.at("measurements").as_u64());
  e.at = util::TimePoint::from_ns(j.at("at_ns").as_int());
  return e;
}

}  // namespace

void write_measurement_json(report::JsonWriter& w, const Measurement& m) {
  w.begin_object()
      .key("target").string(m.target)
      .key("test").string(m.test)
      .key("at_ns").number(m.at.ns())
      .key("result").begin_object()
      .key("test_name").string(m.result.test_name)
      .key("admissible").boolean(m.result.admissible)
      .key("note").string(m.result.note)
      .key("fwd");
  report::write_json(w, m.result.forward);
  w.key("rev");
  report::write_json(w, m.result.reverse);
  w.key("samples").begin_array();
  for (const SampleResult& s : m.result.samples) write_sample_json(w, s);
  w.end_array().end_object().end_object();
}

Measurement measurement_from_json(const report::Json& j) {
  Measurement m;
  m.target = j.at("target").as_string();
  m.test = j.at("test").as_string();
  m.at = util::TimePoint::from_ns(j.at("at_ns").as_int());
  const report::Json& r = j.at("result");
  m.result.test_name = r.at("test_name").as_string();
  m.result.admissible = r.at("admissible").as_bool();
  m.result.note = r.at("note").as_string();
  m.result.forward = report::estimate_from_json(r.at("fwd"));
  m.result.reverse = report::estimate_from_json(r.at("rev"));
  m.result.samples.reserve(r.at("samples").size());
  for (const report::Json& s : r.at("samples").items()) {
    m.result.samples.push_back(sample_from_json(s));
  }
  return m;
}

std::vector<std::size_t> SurveyCheckpoint::completed_shards() const {
  std::vector<std::size_t> out;
  out.reserve(shards_.size());
  for (const auto& [shard, record] : shards_) out.push_back(shard);
  return out;
}

SurveyCheckpoint::Record SurveyCheckpoint::render(const ShardRunResult& result, int attempts) {
  std::string body;
  report::JsonWriter w{body};
  w.begin_object().key("shard").u64(result.shard).key("attempts").number(attempts).key("end");
  write_end_json(w, result.end);
  w.key("log").begin_array();
  for (const Measurement& m : result.log) write_measurement_json(w, m);
  // The target's metric snapshots travel as the exact `metrics` records
  // the engine would emit — the same schema restore_record consumes, so
  // checkpointing exercises no second serialization format.
  w.end_array().key("metrics").begin_array();
  result.metrics.write_records(w);
  w.end_array().end_object();
  return Record{result.shard, shard_done_line(result.shard, body)};
}

void SurveyCheckpoint::record(Record record) {
  const std::size_t shard = record.shard_;
  shards_.insert_or_assign(shard, std::move(record));
}

void SurveyCheckpoint::record_shard(const ShardRunResult& result, int attempts) {
  record(render(result, attempts));
}

ShardRunResult SurveyCheckpoint::Record::decode() const {
  const report::Json line = parse_line(line_);
  const report::Json& body = line.at("body");
  ShardRunResult out;
  out.shard = static_cast<std::size_t>(body.at("shard").as_u64());
  body.at("attempts").as_i32();  // not part of the results, but part of a well-formed record
  out.end = end_from_json(body.at("end"));
  out.log.reserve(body.at("log").size());
  for (const report::Json& m : body.at("log").items()) {
    out.log.push_back(measurement_from_json(m));
  }
  for (const report::Json& rec : body.at("metrics").items()) {
    out.metrics.restore_record(rec);
  }
  return out;
}

ShardRunResult SurveyCheckpoint::restore_shard(std::size_t shard) const {
  return shards_.at(shard).decode();
}

int SurveyCheckpoint::attempts(std::size_t shard) const {
  const report::Json line = parse_line(shards_.at(shard).line_);
  return line.at("body").at("attempts").as_i32();
}

void SurveyCheckpoint::write_lines(report::JsonlWriter& writer) const {
  if (header_) {
    writer.write_line([&](report::JsonWriter& w) {
      w.begin_object()
          .key("type").string("checkpoint_header")
          .key("shards").u64(header_->shards)
          .key("targets").u64(header_->targets)
          .key("rounds").number(header_->rounds)
          .key("seed").u64(header_->seed)
          .key("samples").number(header_->samples)
          .key("sample_payloads").boolean(header_->sample_payloads)
          .end_object();
    });
  }
  for (const auto& [shard, record] : shards_) writer.write_lines(record.line_);
}

std::string SurveyCheckpoint::serialize() const {
  std::ostringstream text;
  report::JsonlWriter writer{text};
  write_lines(writer);
  return text.str();
}

void SurveyCheckpoint::save(const std::string& path) const {
  report::AtomicJsonlFile file{path};
  write_lines(file.writer());
  file.commit();
}

SurveyCheckpoint SurveyCheckpoint::load(const std::string& path) {
  SurveyCheckpoint cp;
  report::RecoveredJsonl recovered = report::read_jsonl_file_prefix(path);
  cp.torn_ = recovered.dropped_lines;
  for (report::Json& line : recovered.records) {
    const report::Json* type = line.find("type");
    if (type == nullptr || !type->is_string()) {
      ++cp.torn_;
      continue;
    }
    if (type->as_string() == "checkpoint_header") {
      // Unlike a corrupt record, which costs only its target, an
      // unreadable header (the plan of every record) rejects the file.
      try {
        Header h;
        h.shards = static_cast<std::size_t>(line.at("shards").as_u64());
        h.targets = static_cast<std::size_t>(line.at("targets").as_u64());
        h.rounds = line.at("rounds").as_i32();
        h.seed = line.at("seed").as_u64();
        h.samples = line.at("samples").as_i32();
        h.sample_payloads = line.at("sample_payloads").as_bool();
        cp.header_ = h;
      } catch (const std::exception& e) {
        throw std::runtime_error{"SurveyCheckpoint::load: " + path +
                                 ": unreadable checkpoint header (" + e.what() + ")"};
      }
      continue;
    }
    if (type->as_string() != "shard_done") {
      ++cp.torn_;
      continue;
    }
    const report::Json* crc = line.find("crc");
    const report::Json* body = line.find("body");
    const std::optional<std::size_t> index = record_index(line);
    const std::string body_text = body != nullptr ? body->dump() : std::string{};
    if (crc == nullptr || body == nullptr || !crc->is_string() ||
        crc->as_string() != body_crc(body_text) || !index || *index != record_index(*body)) {
      // A record that parsed but fails its checksum, lost fields, or
      // files its body under another index (the checksum covers only
      // the body) is corruption, not a schema: drop it and let that
      // target re-run.
      ++cp.torn_;
      continue;
    }
    cp.shards_.insert_or_assign(*index, Record{*index, shard_done_line(*index, body_text)});
  }
  return cp;
}

}  // namespace reorder::core
