// A work-stealing worker pool — the survey service's scheduler, and the
// repository's one thread pool.
//
// The service admits work CONTINUOUSLY and its jobs are wildly uneven (a
// lossy target's world runs for multiples of a clean one's), so placement
// must be free to rebalance. Every worker owns a deque; submission
// round-robins across the deques, owners consume their own deque
// front-to-back (FIFO — a single worker runs jobs in exactly submission
// order), and an idle worker STEALS from the back of a randomly chosen
// victim's deque. Identity stays pinned elsewhere (util::ShardSeeder keys
// every target's RNG streams to its global index), which is precisely
// what makes placement — and therefore stealing — unable to influence any
// result byte.
//
// Locking model: one small mutex per deque, held only for a push or a
// pop. The steal path probes victims under their deque mutex; there is
// no global queue lock on the hot path. Idle sleep is coordinated by a
// global epoch counter (bumped per submission) so a sleeping worker can
// never miss work pushed to ANY deque. Steal traffic is observable:
// per-worker executed / stolen / steal-attempt counters aggregate into
// Stats, which the survey service surfaces in its live snapshots.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace reorder::util {

class WorkStealingPool {
 public:
  /// Spawns `threads` workers; 0 picks hardware_threads(). More workers
  /// than cores is allowed (oversubscription costs context switches,
  /// never correctness — the stress tests pin this).
  explicit WorkStealingPool(std::size_t threads);

  /// Drains every submitted job (stealing keeps helping during shutdown),
  /// then joins.
  ~WorkStealingPool();

  /// Drains and joins the workers now, idempotently. After shutdown()
  /// returns, stats() reflects every job ever submitted. submit() is no
  /// longer allowed.
  void shutdown();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// max(1, std::thread::hardware_concurrency()) — the default worker
  /// count when a caller does not pin one.
  static std::size_t hardware_threads();

  /// Enqueues one job onto the next deque (round-robin). Callable from
  /// any thread, including pool workers. The future resolves when the job
  /// returns and rethrows anything it threw.
  std::future<void> submit(std::function<void()> job);

  /// Scheduling observability. Aggregates are exact totals; the
  /// per-worker vectors are indexed by worker.
  struct Stats {
    std::uint64_t submitted{0};
    /// Jobs a worker took to run, counted before each runs: anything the
    /// job signals on completion (its future, a drain it ends) already
    /// sees it counted.
    std::uint64_t executed{0};
    /// Jobs a worker took from another worker's deque.
    std::uint64_t stolen{0};
    /// Victim probes (locked a victim deque), successful or empty.
    std::uint64_t steal_attempts{0};
    std::vector<std::uint64_t> executed_by_worker;
    std::vector<std::uint64_t> stolen_by_worker;
  };
  Stats stats() const;

 private:
  struct Worker {
    /// Guards `jobs`.
    std::mutex mu;
    std::deque<std::packaged_task<void()>> jobs;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> steal_attempts{0};
    /// Victim-selection RNG state (owner-thread only).
    std::uint64_t rng{0};
    std::thread thread;
  };

  bool try_pop_own(Worker& self, std::packaged_task<void()>& out);
  bool try_steal(std::size_t thief, std::packaged_task<void()>& out);
  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::size_t> next_{0};    ///< round-robin submission cursor
  std::atomic<std::int64_t> queued_{0};  ///< pushed, not yet popped
  std::atomic<bool> stopping_{false};

  /// Sleep coordination: submit bumps the epoch under the
  /// mutex and wakes everyone; an idle worker re-scans whenever the epoch
  /// moved past the value it read before its last (empty) scan.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::uint64_t epoch_{0};
};

}  // namespace reorder::util
