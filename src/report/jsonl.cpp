#include "report/jsonl.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/fault_injector.hpp"

namespace reorder::report {

void JsonlWriter::write(const Json& value) {
  write_line([&](JsonWriter& w) { w.value(value); });
}

void JsonlWriter::write_lines(const JsonlLines& lines) {
  if (faults_ != nullptr) {
    faults_->maybe_throw(fault_site_, util::FaultInjector::Mode::kSinkWriteFailure);
  }
  out_.write(lines.text.data(), static_cast<std::streamsize>(lines.text.size()));
  if (!out_) {
    throw std::runtime_error{"JsonlWriter: stream write failed after " +
                             std::to_string(lines_) + " lines"};
  }
  lines_ += lines.count;
}

void JsonlWriter::set_fault_injector(util::FaultInjector* faults, std::string site) {
  faults_ = faults;
  fault_site_ = std::move(site);
}

AtomicJsonlFile::AtomicJsonlFile(std::string path)
    : path_{std::move(path)},
      tmp_path_{path_ + ".tmp"},
      out_{std::make_unique<std::ofstream>(tmp_path_, std::ios::trunc)},
      writer_{*out_} {
  if (!*out_) {
    throw std::runtime_error{"AtomicJsonlFile: cannot open " + tmp_path_};
  }
}

AtomicJsonlFile::~AtomicJsonlFile() {
  if (committed_) return;
  out_.reset();  // close before unlink (Windows-friendly ordering)
  std::remove(tmp_path_.c_str());
}

void AtomicJsonlFile::commit() {
  if (committed_) {
    throw std::runtime_error{"AtomicJsonlFile: already committed " + path_};
  }
  auto& file = static_cast<std::ofstream&>(*out_);
  file.flush();
  if (!file) {
    throw std::runtime_error{"AtomicJsonlFile: flush failed for " + tmp_path_};
  }
  file.close();
  if (file.fail()) {
    throw std::runtime_error{"AtomicJsonlFile: close failed for " + tmp_path_};
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    throw std::runtime_error{"AtomicJsonlFile: rename " + tmp_path_ + " -> " + path_ +
                             " failed"};
  }
  committed_ = true;
}

std::vector<Json> read_jsonl(std::istream& in) {
  std::vector<Json> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto v = Json::parse(line);
    if (!v) {
      throw std::runtime_error{"read_jsonl: malformed JSON on line " + std::to_string(line_no)};
    }
    out.push_back(std::move(*v));
  }
  return out;
}

std::vector<Json> read_jsonl_text(std::string_view text) {
  std::istringstream in{std::string{text}};
  return read_jsonl(in);
}

std::vector<Json> read_jsonl_file(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"read_jsonl_file: cannot open " + path};
  }
  return read_jsonl(in);
}

RecoveredJsonl read_jsonl_file_prefix(const std::string& path) {
  RecoveredJsonl out;
  std::ifstream in{path};
  if (!in) return out;  // no file yet: nothing recorded, nothing torn
  std::string line;
  bool torn = false;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    auto v = Json::parse(line);
    if (!v) {
      // First malformed line: everything from here on is the torn tail.
      torn = true;
      break;
    }
    out.records.push_back(std::move(*v));
  }
  if (torn) {
    out.dropped_lines = 1;
    while (std::getline(in, line)) ++out.dropped_lines;
  }
  return out;
}

}  // namespace reorder::report
