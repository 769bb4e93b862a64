// JSON Lines emission and ingestion: one compact JSON value per line —
// the machine-readable side of every bench artifact (BENCH_*.jsonl) and
// the wire format of the streaming JsonlResultSink. Lines are rendered by
// JsonWriter, from a tree (write) or directly (append_line, write_line).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace reorder::util {
class FaultInjector;
}

namespace reorder::report {

/// JSONL lines rendered away from their writer (on a worker thread, say)
/// for JsonlWriter::write_lines to write in one piece.
struct JsonlLines {
  std::string text;
  std::size_t count{0};

  /// Appends one line: the one value `write(JsonWriter&)` renders, with
  /// no tree in between.
  template <typename Write>
  void append_line(Write&& write) {
    JsonWriter w{text};
    write(w);
    text += '\n';
    ++count;
  }
};

/// Writes one value per line to a caller-owned stream. Stream failure is
/// an error, not a silent truncation: every write checks the stream
/// afterwards and throws std::runtime_error when it went bad.
class JsonlWriter {
 public:
  explicit JsonlWriter(std::ostream& out) : out_{out} {}

  void write(const Json& value);
  /// Writes the one line `write(JsonWriter&)` renders (see
  /// JsonlLines::append_line).
  template <typename Write>
  void write_line(Write&& write) {
    JsonlLines line;
    line.append_line(write);
    write_lines(line);
  }
  /// Writes lines rendered elsewhere, counting each one; write() and
  /// write_line() are the one-line cases.
  void write_lines(const JsonlLines& lines);
  std::size_t lines_written() const { return lines_; }

  /// Arms the emit path's fault point: every write first probes `site`
  /// for a kSinkWriteFailure plan (not owned; pass nullptr to disarm).
  /// How the failure-policy tests make "the sink write failed" happen on
  /// demand, deterministically.
  void set_fault_injector(util::FaultInjector* faults, std::string site = "jsonl/write");

 private:
  std::ostream& out_;
  std::size_t lines_{0};
  util::FaultInjector* faults_{nullptr};
  std::string fault_site_;
};

/// A JSONL artifact written crash-safely: lines stream into `<path>.tmp`,
/// and only commit() — flush, close, then atomically rename onto `path` —
/// publishes them. A process killed mid-write leaves at most a stale
/// `.tmp` behind; the destination either keeps its previous content or
/// holds one complete, parseable stream. Readers therefore never see the
/// half-written artifact that read_jsonl would reject at its torn last
/// line. An AtomicJsonlFile destroyed uncommitted removes its tmp.
class AtomicJsonlFile {
 public:
  explicit AtomicJsonlFile(std::string path);
  ~AtomicJsonlFile();

  AtomicJsonlFile(const AtomicJsonlFile&) = delete;
  AtomicJsonlFile& operator=(const AtomicJsonlFile&) = delete;

  JsonlWriter& writer() { return writer_; }
  const std::string& path() const { return path_; }
  const std::string& tmp_path() const { return tmp_path_; }

  /// Flushes, closes, and renames the tmp file onto `path`. Throws
  /// std::runtime_error when any step fails (the tmp file is kept for
  /// post-mortem in that case). At most one commit per instance.
  void commit();
  bool committed() const { return committed_; }

 private:
  std::string path_;
  std::string tmp_path_;
  std::unique_ptr<std::ostream> out_;
  JsonlWriter writer_;
  bool committed_{false};
};

/// Parses a JSONL stream; blank lines are skipped, malformed lines throw
/// std::runtime_error (with the 1-based line number).
std::vector<Json> read_jsonl(std::istream& in);
std::vector<Json> read_jsonl_text(std::string_view text);

/// read_jsonl over a file. Throws std::runtime_error when the file cannot
/// be opened.
std::vector<Json> read_jsonl_file(const std::string& path);

/// Lenient sibling for recovery paths: parses the leading well-formed
/// prefix of a JSONL file and reports how many trailing lines were
/// dropped (a torn tail from a killed writer parses up to the tear).
/// Missing file = empty content, zero dropped.
struct RecoveredJsonl {
  std::vector<Json> records;
  std::size_t dropped_lines{0};
};
RecoveredJsonl read_jsonl_file_prefix(const std::string& path);

}  // namespace reorder::report
