#include "util/work_stealing_pool.hpp"

#include <algorithm>

#include "util/shard_seeder.hpp"

namespace reorder::util {

namespace {

/// Seed of the victim-selection streams. Load-balancing only — no result
/// may depend on it.
constexpr std::uint64_t kVictimSeed = 0x9e3779b97f4a7c15ull;

}  // namespace

std::size_t WorkStealingPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

WorkStealingPool::WorkStealingPool(std::size_t threads) {
  const std::size_t n = threads != 0 ? threads : hardware_threads();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->rng = splitmix64(kVictimSeed + i);
    workers_.push_back(std::move(worker));
  }
  // Spawn only after every Worker exists: thieves index the whole vector.
  for (std::size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread{[this, i] { worker_loop(i); }};
  }
}

WorkStealingPool::~WorkStealingPool() { shutdown(); }

void WorkStealingPool::shutdown() {
  {
    // The epoch mutex doubles as the stop signal's fence: a worker checks
    // stopping_ under it before sleeping, so the wake below cannot be
    // missed.
    std::lock_guard lock{sleep_mu_};
    stopping_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

std::future<void> WorkStealingPool::submit(std::function<void()> job) {
  std::packaged_task<void()> task{std::move(job)};
  std::future<void> result = task.get_future();
  Worker& target = *workers_[next_.fetch_add(1, std::memory_order_relaxed) % workers_.size()];
  {
    std::lock_guard lock{target.mu};
    target.jobs.push_back(std::move(task));
  }
  queued_.fetch_add(1, std::memory_order_release);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lock{sleep_mu_};
    ++epoch_;
  }
  sleep_cv_.notify_all();
  return result;
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
  Stats out;
  out.submitted = submitted_.load(std::memory_order_relaxed);
  out.executed_by_worker.reserve(workers_.size());
  out.stolen_by_worker.reserve(workers_.size());
  for (const auto& w : workers_) {
    const std::uint64_t executed = w->executed.load(std::memory_order_relaxed);
    const std::uint64_t stolen = w->stolen.load(std::memory_order_relaxed);
    out.executed += executed;
    out.stolen += stolen;
    out.steal_attempts += w->steal_attempts.load(std::memory_order_relaxed);
    out.executed_by_worker.push_back(executed);
    out.stolen_by_worker.push_back(stolen);
  }
  return out;
}

bool WorkStealingPool::try_pop_own(Worker& self, std::packaged_task<void()>& out) {
  std::lock_guard lock{self.mu};
  if (self.jobs.empty()) return false;
  out = std::move(self.jobs.front());  // FIFO from the owner's end
  self.jobs.pop_front();
  queued_.fetch_sub(1, std::memory_order_release);
  return true;
}

bool WorkStealingPool::try_steal(std::size_t thief, std::packaged_task<void()>& out) {
  Worker& self = *workers_[thief];
  const std::size_t n = workers_.size();
  if (n == 1) return false;
  // One full random-start sweep over the victims. Splitmix64 keeps
  // successive sweeps decorrelated; the stream only shapes load balance.
  self.rng = splitmix64(self.rng);
  const std::size_t start = static_cast<std::size_t>(self.rng % n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t v = (start + k) % n;
    if (v == thief) continue;
    Worker& victim = *workers_[v];
    self.steal_attempts.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock{victim.mu};
    if (victim.jobs.empty()) continue;
    out = std::move(victim.jobs.back());  // opposite end from the owner
    victim.jobs.pop_back();
    queued_.fetch_sub(1, std::memory_order_release);
    self.stolen.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void WorkStealingPool::worker_loop(std::size_t index) {
  Worker& self = *workers_[index];
  for (;;) {
    // Read the epoch BEFORE scanning: a submission racing the scan bumps
    // it, so the empty-handed wait below falls straight through and the
    // scan reruns — a job pushed to any deque can never be slept past.
    std::uint64_t seen;
    {
      std::lock_guard lock{sleep_mu_};
      seen = epoch_;
    }
    std::packaged_task<void()> task;
    if (try_pop_own(self, task) || try_steal(index, task)) {
      // Counted when taken, before it runs: a job's own completion may
      // wake a reader of stats() (a drain that unblocks inside the last
      // job), which must already see the job.
      self.executed.fetch_add(1, std::memory_order_relaxed);
      task();  // exceptions land in the packaged_task's future
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Drain guarantee: any worker can run any job, so exit only once
      // nothing is queued anywhere. A job that a sibling popped
      // concurrently is that sibling's to finish.
      if (queued_.load(std::memory_order_acquire) == 0) return;
      std::this_thread::yield();
      continue;
    }
    std::unique_lock lock{sleep_mu_};
    sleep_cv_.wait(lock, [&] {
      return stopping_.load(std::memory_order_acquire) || epoch_ != seen;
    });
  }
}

}  // namespace reorder::util
