// The minimal clock/scheduler interface a protocol stack needs. The
// discrete-event loop in netsim implements it; keeping the interface here
// lets tcpip stay independent of the simulator (and unit-testable against a
// trivial manual clock).
#pragma once

#include <cstdint>
#include <utility>

#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace reorder::tcpip {

/// Capacity of a scheduled callback's inline capture buffer. Sized for the
/// largest hot-path capture: a netsim stage forwarding lambda carrying a
/// whole tcpip::Packet by value (headers + payload vector + metadata), with
/// headroom for a Timer's callback (the timer's own pointer plus its
/// callable: a pointer to the run or endpoint, or a paced packet). Compile-
/// time enforced — an oversized capture fails the static_assert in
/// InplaceFunction rather than silently allocating.
inline constexpr std::size_t kCallbackCapacity = 192;

/// Deferred-execution callback: move-only, never heap-allocates its capture.
using Callback = util::InplaceFunction<void(), kCallbackCapacity>;

/// Virtual time plus deferred execution. Implementations must run callbacks
/// in timestamp order; ties in FIFO order of scheduling.
class Environment {
 public:
  virtual ~Environment() = default;

  virtual util::TimePoint now() const = 0;

  /// Runs `fn` after `delay` (>= 0). Returns a token that can be cancelled.
  /// Tokens are never zero, so callers can use 0 as "no timer armed".
  virtual std::uint64_t schedule(util::Duration delay, Callback fn) = 0;

  /// Cancels a previously scheduled callback; no-op if already run or
  /// cancelled, and for the "no timer armed" token 0.
  virtual void cancel(std::uint64_t token) = 0;

  /// Allocates a packet uid, unique within this environment's world and
  /// never zero. Uids tie sample packets to trace captures (ground
  /// truth), so they number the world's own packets only: the same world
  /// draws the same uids whatever thread runs it and whatever ran before.
  std::uint64_t next_packet_uid() { return ++packet_uids_; }

 private:
  std::uint64_t packet_uids_{0};
};

/// At most one pending callback on an Environment — the one timer every
/// protocol state machine uses. arm() cancels the pending callback, then
/// schedules `fn`, so only the last armed callback ever runs; the timer
/// disarms before `fn` runs, so `fn` may re-arm it. Destroying the timer
/// cancels what it holds, so the environment must outlive it. The
/// scheduled event captures the timer's address: a Timer never moves.
class Timer {
 public:
  explicit Timer(Environment& env) : env_{&env} {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// `fn` is a template parameter, never a std::function, so a capture of
  /// plain pointers stays trivially copyable inside the Callback.
  template <class F>
  void arm(util::Duration delay, F fn) {
    cancel();
    token_ = env_->schedule(delay, [this, fn = std::move(fn)]() mutable {
      token_ = 0;
      fn();
    });
  }

  void cancel() {
    if (token_ != 0) env_->cancel(std::exchange(token_, 0));
  }

  bool armed() const { return token_ != 0; }

 private:
  Environment* env_;
  std::uint64_t token_{0};  ///< 0 when nothing is pending
};

}  // namespace reorder::tcpip
