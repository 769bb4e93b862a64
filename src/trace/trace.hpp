// Packet trace capture. A TraceTap is a transparent stage dropped into a
// path at the point of interest (e.g. just before the remote host); it
// records (timestamp, packet) pairs that the Analyzer later turns into
// ground-truth ordering information — the role tcpdump played in the
// paper's controlled validation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netsim/event_loop.hpp"
#include "netsim/stage.hpp"
#include "tcpip/packet.hpp"
#include "util/time.hpp"

namespace reorder::trace {

/// One captured packet.
struct TraceRecord {
  util::TimePoint at;
  tcpip::Packet packet;
};

/// Append-only capture buffer shared by taps and analyzers.
class TraceBuffer {
 public:
  void record(util::TimePoint at, const tcpip::Packet& pkt) {
    records_.push_back(TraceRecord{at, pkt});
  }
  void clear() { records_.clear(); }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<TraceRecord>& records() const { return records_; }

  /// Records whose packet uid is in `uids`, in capture order.
  std::vector<TraceRecord> filter_uids(const std::vector<std::uint64_t>& uids) const;

 private:
  std::vector<TraceRecord> records_;
};

/// Transparent capture stage: copies every packet into a TraceBuffer and
/// forwards it unmodified with zero added delay.
class TraceTap final : public sim::Stage {
 public:
  TraceTap(sim::EventLoop& loop, TraceBuffer& buffer, std::string label)
      : loop_{loop}, buffer_{buffer}, label_{std::move(label)} {}

  void accept(tcpip::Packet&& pkt) override {
    buffer_.record(loop_.now(), pkt);
    emit(std::move(pkt));
  }
  std::string name() const override { return "tap:" + label_; }

 private:
  sim::EventLoop& loop_;
  TraceBuffer& buffer_;
  std::string label_;
};

}  // namespace reorder::trace
