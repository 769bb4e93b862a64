// util::WorkStealingPool, the survey service's scheduler: jobs all run
// exactly once under stealing, oversubscription and empty-victim races,
// worker exceptions surface at the join point, destruction drains every
// deque, and the steal counters account exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/work_stealing_pool.hpp"

namespace reorder::util {
namespace {

TEST(WorkStealingPool, RunsEveryJobExactlyOnceWithStealing) {
  std::atomic<int> counter{0};
  WorkStealingPool pool{4};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 200; ++i) {
    done.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(WorkStealingPool, SurvivesOversubscription) {
  // Far more workers than cores: correctness must not depend on every
  // worker making progress promptly (context switches only cost time).
  ASSERT_GE(WorkStealingPool::hardware_threads(), 1u);
  const std::size_t threads = 4 * WorkStealingPool::hardware_threads();
  std::atomic<int> counter{0};
  WorkStealingPool pool{threads};
  EXPECT_EQ(pool.size(), threads);
  std::vector<std::future<void>> done;
  for (int i = 0; i < 500; ++i) {
    done.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : done) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(WorkStealingPool, EmptyVictimRacesAreHarmless) {
  // Many thieves, almost no work, several producers racing tiny bursts in:
  // most steal probes hit EMPTY deques concurrently with pushes and pops.
  // The assertion here is exactly-once execution; under TSAN this is also
  // the data-race gauntlet for the per-deque locking.
  WorkStealingPool pool{8};
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  std::mutex mu;
  std::vector<std::future<void>> done;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto f = pool.submit([&counter] { counter.fetch_add(1); });
        const std::lock_guard<std::mutex> lock{mu};
        done.push_back(std::move(f));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& f : done) f.get();
  EXPECT_EQ(counter.load(), 4 * 50);
}

TEST(WorkStealingPool, StealCountersAccountExactly) {
  WorkStealingPool pool{4};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 300; ++i) {
    done.push_back(pool.submit([] {}));
  }
  for (auto& f : done) f.get();
  // A job counts when a worker takes it, so every resolved future is
  // already counted; shutdown() changes nothing.
  EXPECT_EQ(pool.stats().executed, 300u);
  pool.shutdown();
  const WorkStealingPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 300u);
  EXPECT_EQ(stats.executed, 300u);
  ASSERT_EQ(stats.executed_by_worker.size(), 4u);
  ASSERT_EQ(stats.stolen_by_worker.size(), 4u);
  std::uint64_t executed_sum = 0;
  std::uint64_t stolen_sum = 0;
  for (std::size_t w = 0; w < 4; ++w) {
    executed_sum += stats.executed_by_worker[w];
    stolen_sum += stats.stolen_by_worker[w];
  }
  EXPECT_EQ(executed_sum, stats.executed);
  EXPECT_EQ(stolen_sum, stats.stolen);
  EXPECT_LE(stats.stolen, stats.executed);
  // Every successful steal was an attempt; empty probes only add to
  // attempts.
  EXPECT_GE(stats.steal_attempts, stats.stolen);
}

TEST(WorkStealingPool, StealsFromABlockedWorkersDeque) {
  // One job camps on a worker while the round-robin keeps loading both
  // deques; the blocked worker's backlog is only drainable by theft.
  WorkStealingPool pool{2};
  std::atomic<int> counter{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto blocker = pool.submit([released] { released.wait(); });
  std::vector<std::future<void>> done;
  for (int i = 0; i < 20; ++i) {
    done.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : done) f.get();  // completes while the blocker still holds its worker
  EXPECT_EQ(counter.load(), 20);
  EXPECT_GE(pool.stats().stolen, 1u);
  release.set_value();
  blocker.get();
}

TEST(WorkStealingPool, OneWorkerRunsJobsInSubmissionOrder) {
  // The owner pops its deque front-first and a lone worker has no victim
  // to steal from, so one worker runs jobs in exactly submission order.
  WorkStealingPool pool{1};
  std::vector<int> order;
  std::vector<std::future<void>> done;
  for (int i = 0; i < 32; ++i) {
    done.push_back(pool.submit([&order, i] { order.push_back(i); }));
  }
  for (auto& f : done) f.get();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(pool.stats().stolen, 0u);
}

TEST(WorkStealingPool, ExceptionsSurfaceThroughTheFuture) {
  WorkStealingPool pool{2};
  auto ok = pool.submit([] {});
  auto bad = pool.submit([] { throw std::runtime_error{"target failed"}; });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(WorkStealingPool, DestructionDrainsPendingJobs) {
  std::atomic<int> counter{0};
  {
    WorkStealingPool pool{2};
    for (int i = 0; i < 16; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        counter.fetch_add(1);
      });
    }
  }  // ~WorkStealingPool joins only after every deque is empty
  EXPECT_EQ(counter.load(), 16);
}

}  // namespace
}  // namespace reorder::util
