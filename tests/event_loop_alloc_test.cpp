// Proves the scheduler hot path is allocation-free in steady state: after a
// warm-up that grows the heap/slot vectors to their high-water mark, a
// schedule/pop cycle (and a schedule/cancel cycle, and a packet's trip
// down a stage path) must perform zero heap allocations. A counting global
// operator new/delete makes the claim exact rather than statistical. This
// file intentionally links into its own test binary so the replaced
// operators cannot perturb other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "netsim/event_loop.hpp"
#include "netsim/link.hpp"
#include "netsim/path.hpp"
#include "netsim/swap_shaper.hpp"
#include "tcpip/packet.hpp"
#include "util/buffer_pool.hpp"
#include "util/random.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The replacements stay out of line: inlined into a caller, a malloc or a
// free would meet that caller's new-expression or delete-expression and
// trip GCC's -Wmismatched-new-delete (seen in the sanitizer builds).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace reorder::sim {
namespace {

using util::Duration;

std::uint64_t allocation_count() { return g_allocations.load(std::memory_order_relaxed); }

/// A fresh packet per send: headers by value (no heap), payload from the
/// pool — the shape a netsim stage forwards.
tcpip::Packet pooled_packet() {
  tcpip::Packet pkt;
  pkt.tcp.src_port = 40000;
  pkt.tcp.dst_port = 80;
  pkt.payload = util::BufferPool::global().acquire(1460);
  pkt.payload.assign(1460, 0xab);
  return pkt;
}

TEST(EventLoopAlloc, SteadyStateScheduleRunIsAllocationFree) {
  EventLoop loop;
  // Warm-up: grow the heap and slot vectors past anything the measured
  // phase will need.
  for (int i = 0; i < 1024; ++i) loop.schedule(Duration::micros(i % 97), [] {});
  loop.run();

  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) loop.schedule(Duration::micros(i % 97), [] {});
    loop.run();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "scheduler steady state allocated";
}

TEST(EventLoopAlloc, SteadyStateCancelIsAllocationFree) {
  EventLoop loop;
  std::vector<std::uint64_t> tokens(256);
  for (int i = 0; i < 1024; ++i) loop.schedule(Duration::micros(i % 97), [] {});
  loop.run();

  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) {
      tokens[static_cast<std::size_t>(i)] = loop.schedule(Duration::micros(i % 97), [] {});
    }
    for (int i = 0; i < 256; i += 2) loop.cancel(tokens[static_cast<std::size_t>(i)]);
    loop.run();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "cancel-heavy steady state allocated";
}

// A packet-carrying callback (the netsim-stage shape: `this` + a whole
// Packet moved through the scheduler) must also be allocation-free once its
// payload buffer is pooled.
TEST(EventLoopAlloc, PacketCarryingCallbackIsAllocationFree) {
  EventLoop loop;
  std::uint64_t delivered = 0;
  auto send_one = [&loop, &delivered](tcpip::Packet pkt) {
    loop.schedule(Duration::micros(5), [&delivered, p = std::move(pkt)]() mutable {
      ++delivered;
      tcpip::recycle(std::move(p));
    });
  };

  // Warm-up grows the pool and scheduler storage.
  for (int i = 0; i < 64; ++i) send_one(pooled_packet());
  loop.run();

  const std::uint64_t before = allocation_count();
  for (int round = 0; round < 100; ++round) {
    send_one(pooled_packet());
    loop.run();
  }
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "packet round through scheduler allocated";
  EXPECT_EQ(delivered, 164u);
}

// The stage path every survey packet takes, LinkStage > SwapShaper >
// LinkStage: the links hold their in-flight packets, the shaper holds one
// and re-arms its release timer, and a Timer beside the path is re-armed
// while pending (re-keyed in place). Once warm, nothing allocates.
TEST(EventLoopAlloc, StagePathWithRearmedTimerIsAllocationFree) {
  EventLoop loop;
  Path path;
  path.emplace<LinkStage>(loop, LinkParams{});
  path.emplace<SwapShaper>(loop, SwapShaperConfig{0.5, Duration::millis(5)}, util::Rng{3});
  path.emplace<LinkStage>(loop, LinkParams{});
  std::uint64_t delivered = 0;
  path.terminate([&delivered](tcpip::Packet&& pkt) {
    ++delivered;
    tcpip::recycle(std::move(pkt));
  });
  Timer timer{loop};
  std::uint64_t fired = 0;
  const auto round = [&] {
    for (int i = 0; i < 4; ++i) path.send(pooled_packet());
    timer.arm(Duration::millis(1), [&fired] { ++fired; });
    timer.arm(Duration::millis(2), [&fired] { ++fired; });
    loop.run();
  };

  for (int i = 0; i < 64; ++i) round();  // grows the pool, rings and slots

  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 100; ++i) round();
  const std::uint64_t after = allocation_count();
  EXPECT_EQ(after - before, 0u) << "stage path round allocated";
  EXPECT_EQ(delivered, 4u * 164u);
  EXPECT_EQ(fired, 164u) << "a re-armed timer runs once";
}

}  // namespace
}  // namespace reorder::sim
