// A unidirectional chain of stages with an entry sink and a terminal sink.
// Topologies are built from two Paths (forward and reverse) plus hosts.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "netsim/stage.hpp"

namespace reorder::sim {

/// Owns an ordered chain of stages. Build with emplace<T>(...), then call
/// terminate() with the destination's sink; send() injects packets.
class Path {
 public:
  Path() = default;

  Path(const Path&) = delete;
  Path& operator=(const Path&) = delete;

  /// Appends a stage constructed in place and returns a reference to it
  /// (so callers can keep handles for runtime control / counters).
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto stage = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *stage;
    if (!stages_.empty()) stages_.back()->connect(ref);
    stages_.push_back(std::move(stage));
    return ref;
  }

  /// Connects the last stage to the destination. With no stages the path
  /// is a wire: send() forwards straight to the terminal sink.
  void terminate(PacketSink sink) {
    terminal_ = std::move(sink);
    if (!stages_.empty()) stages_.back()->connect(terminal_);
  }

  /// Injects one packet into this path's first element.
  void send(tcpip::Packet&& pkt) {
    if (!stages_.empty()) {
      stages_.front()->accept(std::move(pkt));
    } else if (terminal_) {
      terminal_(std::move(pkt));
    }
  }

  /// A sink that send()s into this path, which must outlive it.
  PacketSink entry() {
    return [this](tcpip::Packet&& pkt) { send(std::move(pkt)); };
  }

  std::size_t stage_count() const { return stages_.size(); }

  /// "link > swap-shaper > link" — for topology dumps.
  std::string describe() const {
    std::string out;
    for (const auto& s : stages_) {
      if (!out.empty()) out += " > ";
      out += s->name();
    }
    return out.empty() ? "wire" : out;
  }

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
  PacketSink terminal_;
};

}  // namespace reorder::sim
