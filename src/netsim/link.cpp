#include "netsim/link.hpp"

#include <utility>

namespace reorder::sim {

LinkStage::LinkStage(EventLoop& loop, LinkParams params) : loop_{loop}, params_{params} {}

util::Duration LinkStage::serialization_time(std::size_t bytes) const {
  if (params_.bandwidth_bps <= 0) return util::Duration::nanos(0);
  const double seconds =
      static_cast<double>(bytes) * 8.0 / static_cast<double>(params_.bandwidth_bps);
  return util::Duration::from_seconds_f(seconds);
}

void LinkStage::accept(tcpip::Packet&& pkt) {
  if (in_flight_.size() >= params_.queue_limit_packets) {
    ++dropped_;
    return;
  }
  const util::TimePoint now = loop_.now();
  const util::Duration ser = serialization_time(pkt.wire_size());
  const util::TimePoint start = busy_until_ > now ? busy_until_ : now;
  busy_until_ = start + ser;
  in_flight_.push(std::move(pkt));
  loop_.schedule_at(busy_until_ + params_.propagation, [this] { deliver(); });
}

void LinkStage::deliver() {
  ++forwarded_;
  in_flight_.pop([this](tcpip::Packet&& pkt) { emit(std::move(pkt)); });
}

void DelayStage::accept(tcpip::Packet&& pkt) {
  in_flight_.push(std::move(pkt));
  loop_.schedule(delay_, [this] {
    in_flight_.pop([this](tcpip::Packet&& pkt) { emit(std::move(pkt)); });
  });
}

void JitterStage::accept(tcpip::Packet&& pkt) {
  const auto extra = util::Duration::nanos(rng_.between(lo_.ns(), hi_.ns()));
  loop_.schedule(extra, [this, p = std::move(pkt)]() mutable { emit(std::move(p)); });
}

void LossStage::accept(tcpip::Packet&& pkt) {
  if (rng_.bernoulli(p_)) {
    ++dropped_;
    return;
  }
  emit(std::move(pkt));
}

}  // namespace reorder::sim
