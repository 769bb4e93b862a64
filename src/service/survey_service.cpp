#include "service/survey_service.hpp"

#include <algorithm>
#include <future>
#include <span>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "report/sinks.hpp"
#include "util/fault_injector.hpp"

namespace reorder::service {

namespace {

/// Wall-clock wait before a target's second attempt, doubled per further
/// attempt up to kMaxBackoff. Wall time, not virtual time: the world is
/// rebuilt afresh each attempt, so virtual time restarts; only the host
/// needs breathing room.
constexpr std::chrono::milliseconds kInitialBackoff{1};
constexpr std::chrono::milliseconds kMaxBackoff{50};

/// The canonical log order: one target runs its tests strictly
/// sequentially, so (target, test, at) totally orders a survey's
/// measurements.
bool canonical_less(const core::Measurement& a, const core::Measurement& b) {
  return std::tie(a.target, a.test, a.at) < std::tie(b.target, b.test, b.at);
}

class EndCapture final : public core::ResultSink {
 public:
  void on_survey_end(const core::SurveyEvent& e) override { end = e; }
  core::SurveyEvent end{};
};

/// Renders sample and measurement events into lines, as JsonlResultSink
/// writes them.
class LinesSink final : public core::ResultSink {
 public:
  explicit LinesSink(report::JsonlLines& out) : out_{out} {}

  void on_sample(const core::SampleEvent& e) override {
    out_.append_line([&](report::JsonWriter& w) { report::write_json(w, e); });
  }
  void on_measurement(const core::MeasurementEvent& e) override {
    out_.append_line([&](report::JsonWriter& w) { report::write_json(w, e); });
  }

 private:
  report::JsonlLines& out_;
};

using RenderChunk = std::function<void(std::size_t chunk, report::JsonlLines& out)>;

/// Renders chunks [0, chunks) on `pool`, or inline on the caller when there
/// is none, and writes them to `out` strictly in chunk order. At most
/// kEmitWindowPerWorker chunks per worker render ahead of the writer, each
/// into a window slot's buffer, which keeps its capacity for the next
/// chunk: a chunk is a bounded number of targets, so the window's buffers
/// stop growing after its first round instead of regrowing every chunk.
void write_in_order(util::WorkStealingPool* pool, std::size_t chunks, const RenderChunk& render,
                    report::JsonlWriter& out) {
  struct Slot {
    report::JsonlLines lines;
    std::future<void> rendered;
  };
  const std::size_t window =
      pool != nullptr ? SurveyService::kEmitWindowPerWorker * pool->size() : 1;
  std::vector<Slot> slots(std::min(window, chunks));
  const auto start = [&](std::size_t chunk) {
    Slot& slot = slots[chunk % window];
    if (pool == nullptr) {
      render(chunk, slot.lines);
    } else {
      slot.rendered = pool->submit([&render, &slot, chunk] { render(chunk, slot.lines); });
    }
  };
  try {
    for (std::size_t chunk = 0; chunk < slots.size(); ++chunk) start(chunk);
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      Slot& slot = slots[chunk % window];
      if (slot.rendered.valid()) slot.rendered.get();  // rethrows the job's exception
      out.write_lines(slot.lines);
      slot.lines.text.clear();
      slot.lines.count = 0;
      if (chunk + window < chunks) start(chunk + window);
    }
  } catch (...) {
    // Jobs still in flight render into `slots`: wait them out first.
    for (Slot& slot : slots) {
      if (slot.rendered.valid()) slot.rendered.wait();
    }
    throw;
  }
}

/// A checkpoint record is adoptable only by the target it measured. One
/// whose measurements or metrics name another target came from a
/// different fleet, or was filed under another index.
void require_recorded_target(const core::ShardRunResult& recorded, const std::string& name,
                             std::size_t index) {
  const auto require = [&](const std::string& target) {
    if (target != name) {
      throw std::invalid_argument{"SurveyService: checkpoint record " + std::to_string(index) +
                                  " measured '" + target + "', not the admitted '" + name +
                                  "'"};
    }
  };
  for (const core::Measurement& m : recorded.log) require(m.target);
  for (const auto& [target, test] : recorded.metrics.keys()) require(target);
}

}  // namespace

SurveyService::SurveyService(SurveyServiceConfig config) : config_{std::move(config)} {
  pool_ = std::make_unique<util::WorkStealingPool>(config_.workers);
  if (!config_.checkpoint_path.empty()) {
    checkpoint_thread_ = std::thread{[this] { checkpoint_loop(); }};
  }
}

SurveyService::~SurveyService() {
  try {
    stop();
  } catch (...) {
    // A plan error surfacing in a destructor has nowhere to go; callers
    // that care drain()/stop() explicitly and observe it there.
  }
}

// ----------------------------------------------------------- admission

std::size_t SurveyService::admit(core::SurveyTargetConfig target) {
  return admit_one(std::move(target), std::nullopt);
}

std::size_t SurveyService::admit(core::SurveyTargetConfig target, std::size_t global_index) {
  return admit_one(std::move(target), global_index);
}

std::size_t SurveyService::admit_one(core::SurveyTargetConfig target,
                                     std::optional<std::size_t> explicit_index) {
  std::optional<core::ShardRunResult> adopt;
  std::size_t index;
  {
    std::lock_guard lock{admission_mu_};
    index = admit_locked(std::move(target), explicit_index, adopt);
  }
  if (adopt.has_value()) {
    complete_target(index, std::move(*adopt), 0);
  } else {
    submit_target(index);
  }
  return index;
}

std::vector<std::size_t> SurveyService::admit(std::vector<core::SurveyTargetConfig> batch) {
  std::vector<std::size_t> indices;
  indices.reserve(batch.size());
  std::vector<std::pair<std::size_t, core::ShardRunResult>> adopted;
  std::vector<std::size_t> fresh;
  std::exception_ptr rejected;
  {
    std::lock_guard lock{admission_mu_};
    for (auto& target : batch) {
      std::optional<core::ShardRunResult> adopt;
      std::size_t index = 0;
      try {
        index = admit_locked(std::move(target), std::nullopt, adopt);
      } catch (...) {
        rejected = std::current_exception();
        break;
      }
      indices.push_back(index);
      if (adopt.has_value()) {
        adopted.emplace_back(index, std::move(*adopt));
      } else {
        fresh.push_back(index);
      }
    }
  }
  // Targets admitted before a rejection are pending: they must run, or
  // drain() would wait on them forever.
  for (auto& [index, result] : adopted) complete_target(index, std::move(result), 0);
  for (const std::size_t index : fresh) submit_target(index);
  if (rejected) std::rethrow_exception(rejected);
  return indices;
}

std::size_t SurveyService::admit_locked(core::SurveyTargetConfig target,
                                        std::optional<std::size_t> explicit_index,
                                        std::optional<core::ShardRunResult>& adopt) {
  if (stopped_) {
    throw std::logic_error{"SurveyService: admit after stop()"};
  }
  const std::size_t index = explicit_index.value_or(next_index_);
  if (targets_.count(index) != 0) {
    throw std::invalid_argument{"SurveyService: global index " + std::to_string(index) +
                                " already admitted"};
  }
  core::pin_global_identity(target, index, config_.seed);
  const auto restored = restored_.find(index);
  if (restored != restored_.end()) {
    require_recorded_target(restored->second, target.name, index);
  }

  // Fleet-wide identity collisions reject at admission: results are keyed
  // by name, so a duplicate would silently pool two streams.
  if (!names_.emplace(target.name, index).second) {
    throw std::invalid_argument{"SurveyService: duplicate target name '" + target.name + "'"};
  }
  if (!addresses_.insert(target.address.value()).second) {
    names_.erase(target.name);
    throw std::invalid_argument{"SurveyService: duplicate target address " +
                                target.address.to_string()};
  }

  next_index_ = std::max(next_index_, index + 1);
  AdmittedTarget admitted;
  admitted.name = target.name;
  admitted.config = std::move(target);
  targets_.emplace(index, std::move(admitted));
  admitted_.fetch_add(1);

  if (restored != restored_.end()) {
    adopt = std::move(restored->second);
    restored_.erase(restored);
    return index;
  }
  ++pending_;
  return index;
}

void SurveyService::submit_target(std::size_t index) {
  // The future is deliberately dropped: completion flows through the
  // fold/accounting path, and every exception class is caught inside
  // run_target (plan errors are parked for drain() to rethrow).
  pool_->submit([this, index] { run_target(index); });
}

void SurveyService::restore(const core::SurveyCheckpoint& checkpoint) {
  std::lock_guard lock{admission_mu_};
  if (!targets_.empty()) {
    throw std::logic_error{"SurveyService: restore() must precede the first admission"};
  }
  if (checkpoint.header().has_value()) {
    const core::SurveyCheckpoint::Header& h = *checkpoint.header();
    // shards == 0 marks per-target records; anything else is the retired
    // per-shard format, whose records do not map onto target indices. A
    // service that retains results needs every record's sample payloads;
    // a lean one adopts either kind.
    if (h.shards != 0 || h.rounds != config_.rounds || h.seed != config_.seed ||
        h.samples != config_.run.samples || (config_.retain_results && !h.sample_payloads)) {
      throw std::invalid_argument{
          "SurveyService::restore: checkpoint header does not match this service plan"};
    }
  }
  // Decode everything before keeping anything: a record that does not
  // decode refuses the whole restore with nothing recorded, so the
  // refused file is never rewritten without the records after it. Each
  // record's line is parsed here once.
  std::vector<std::pair<std::size_t, core::ShardRunResult>> decoded;
  for (const auto& [index, record] : checkpoint.records()) {
    try {
      decoded.emplace_back(index, record.decode());
    } catch (const std::exception& e) {
      throw std::invalid_argument{"SurveyService::restore: checkpoint record " +
                                  std::to_string(index) + " does not decode: " + e.what()};
    }
  }
  // A restored record is this survey's durable progress: its line is
  // carried as it is into this service's checkpoint, so no save (after a
  // rejected admission, or a stop mid-admission) drops it. Adoption
  // leaves it there — the line already holds the target's results and
  // its real attempts.
  std::lock_guard checkpoint_lock{checkpoint_mu_};
  if (!config_.checkpoint_path.empty() && !decoded.empty()) {
    for (const auto& [index, record] : checkpoint.records()) checkpoint_.record(record);
    checkpoint_dirty_ = true;
  }
  for (auto& [index, result] : decoded) restored_.insert_or_assign(index, std::move(result));
}

// ----------------------------------------------------------- execution

core::ShardRunResult SurveyService::run_world(std::size_t index,
                                              const core::SurveyTargetConfig& cfg) const {
  // One admitted target is one complete world of its own. Per-target
  // independence (the concurrent-vs-sequential equivalence property)
  // makes this world's results identical to the target's results on any
  // shared event loop.
  core::SurveyTestbedConfig world;
  world.seed = config_.seed;
  world.probe_addr = config_.probe_addr;
  world.targets.push_back(cfg);

  core::SurveyTestbed bed{std::move(world)};
  core::SurveyEngine::Options options = config_.engine;
  options.retain_samples = config_.retain_results;
  core::SurveyEngine engine{bed.loop(), std::move(options)};
  bed.populate(engine);

  EndCapture end;
  engine.add_sink(end);

  engine.run(config_.run, config_.rounds, config_.between);

  core::ShardRunResult out;
  out.shard = index;
  out.log = engine.release_measurements();
  out.metrics = engine.release_metrics();
  out.end = end.end;
  return out;
}

void SurveyService::run_target(std::size_t index) {
  core::SurveyTargetConfig cfg;
  {
    std::lock_guard lock{admission_mu_};
    cfg = targets_.at(index).config;
  }

  // Fault sites carry the global target index in the shard slot of the
  // "shard/<index>/run" convention.
  util::FaultInjector* faults = config_.engine.faults;
  const std::string run_site = "shard/" + std::to_string(index) + "/run";
  const std::string abort_site = "shard/" + std::to_string(index) + "/abort";
  const int max_attempts = std::max(1, config_.retry.max_attempts);
  std::chrono::milliseconds backoff = kInitialBackoff;

  std::string error;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    bool transient = true;
    try {
      if (faults != nullptr) faults->maybe_throw(run_site, util::FaultInjector::Mode::kThrow);
      core::ShardRunResult result = run_world(index, cfg);
      if (faults != nullptr) {
        faults->maybe_throw(abort_site, util::FaultInjector::Mode::kShardAbort);
      }
      complete_target(index, std::move(result), attempt);
      return;
    } catch (const util::InjectedFault& fault) {
      transient = fault.transient();
      error = fault.what();
    } catch (const std::invalid_argument& e) {
      // A broken survey PLAN — it would fail identically on every attempt.
      // There is no caller to unwind into, so the error is parked and
      // drain() rethrows it.
      fail_target(index, attempt, e.what(), true);
      return;
    } catch (const std::exception& e) {
      error = e.what();
    }
    if (!transient || attempt == max_attempts) {
      fail_target(index, attempt, std::move(error), false);
      return;
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, kMaxBackoff);
  }
}

void SurveyService::complete_target(std::size_t index, core::ShardRunResult result,
                                    int attempts) {
  const bool adopted = attempts == 0;
  // Durability point first: the checkpoint record exists before the
  // result feeds any live view. The record is rendered here, on the
  // worker that ran the target, so the lock guards only its insertion.
  // An adopted target's record was carried in by restore().
  if (!adopted && !config_.checkpoint_path.empty()) {
    core::SurveyCheckpoint::Record record = core::SurveyCheckpoint::render(result, attempts);
    std::lock_guard lock{checkpoint_mu_};
    checkpoint_.record(std::move(record));
    checkpoint_dirty_ = true;
  }

  const std::size_t measurements = result.log.size();
  const util::TimePoint virtual_end = result.end.at;
  // Sorted once, here, into the order emission walks; the log then lives
  // only in the target's admission entry.
  if (config_.retain_results) std::sort(result.log.begin(), result.log.end(), canonical_less);

  std::string name;
  {
    std::lock_guard lock{admission_mu_};
    // Folded once, in the same hold that marks the target done, so every
    // reader sees the totals and the counters agree. Target names are
    // unique: the merge only adds this target's keys.
    merged_.merge(result.metrics);
    measurements_ += measurements;
    participants_ += result.end.targets;
    virtual_end_ = std::max(virtual_end_, virtual_end);
    AdmittedTarget& target = targets_.at(index);
    target.state = AdmittedTarget::State::kDone;
    if (config_.retain_results) target.log = std::move(result.log);
    // Adopted results carry attempts = 0 in the live accounting; the
    // checkpoint keeps the real history.
    target.attempts = attempts;
    target.config = core::SurveyTargetConfig{};  // retire the world description
    name = target.name;
    completed_.fetch_add(1);
  }

  if (config_.on_target_complete) {
    TargetDone done;
    done.index = index;
    done.name = name;
    done.measurements = measurements;
    done.virtual_end = virtual_end;
    done.attempts = attempts;
    config_.on_target_complete(done);
  }

  // The target counts as drained only now — state folded, counters
  // published, callback finished — so drain() returning means every
  // completion side effect has fully landed. An adopted target was never
  // pending.
  if (!adopted) {
    std::lock_guard lock{admission_mu_};
    if (--pending_ == 0) done_cv_.notify_all();
  }
}

void SurveyService::fail_target(std::size_t index, int attempts, std::string error,
                                bool plan_error) {
  std::lock_guard lock{admission_mu_};
  AdmittedTarget& target = targets_.at(index);
  target.state = AdmittedTarget::State::kFailed;
  target.attempts = attempts;
  target.error = std::move(error);
  target.config = core::SurveyTargetConfig{};
  if (plan_error && !plan_error_) {
    plan_error_ = std::make_exception_ptr(std::invalid_argument{target.error});
  }
  failed_.fetch_add(1);
  if (--pending_ == 0) done_cv_.notify_all();
}

// ------------------------------------------------------------ live view

std::size_t SurveyService::in_flight() const {
  // Retired counters first: both only grow, and admitted >= completed +
  // failed is invariant under the admission lock, so this read order
  // keeps the difference non-negative for lock-free readers.
  const std::size_t retired = completed_.load() + failed_.load();
  const std::size_t admitted = admitted_.load();
  return admitted > retired ? admitted - retired : 0;
}

SurveyService::Snapshot SurveyService::snapshot() const {
  Snapshot snap;
  util::WorkStealingPool::Stats stats;
  {
    std::lock_guard lock{admission_mu_};
    snap.admitted = admitted_.load();
    snap.completed = completed_.load();
    snap.failed = failed_.load();
    snap.measurements = measurements_;
    snap.virtual_end = virtual_end_;
    snap.metric_keys = merged_.key_count();
    snap.workers = pool_ ? pool_->size() : final_workers_;
    stats = pool_ ? pool_->stats() : final_stats_;
  }
  snap.in_flight = snap.admitted - snap.completed - snap.failed;
  snap.degraded = snap.failed > 0;
  snap.jobs_executed = stats.executed;
  snap.steals = stats.stolen;
  snap.steal_attempts = stats.steal_attempts;
  return snap;
}

util::WorkStealingPool::Stats SurveyService::scheduler_stats() const {
  std::lock_guard lock{admission_mu_};
  return pool_ ? pool_->stats() : final_stats_;
}

report::Json SurveyService::Snapshot::to_json() const {
  report::Json j = report::Json::object();
  j.set("type", "service_snapshot");
  j.set("admitted", report::Json::u64(admitted));
  j.set("completed", report::Json::u64(completed));
  j.set("failed", report::Json::u64(failed));
  j.set("in_flight", report::Json::u64(in_flight));
  j.set("measurements", report::Json::u64(measurements));
  j.set("virtual_end_ns", report::Json::u64(static_cast<std::uint64_t>(virtual_end.ns())));
  j.set("workers", report::Json::u64(workers));
  j.set("jobs_executed", report::Json::u64(jobs_executed));
  j.set("steals", report::Json::u64(steals));
  j.set("steal_attempts", report::Json::u64(steal_attempts));
  j.set("metric_keys", report::Json::u64(metric_keys));
  j.set("degraded", degraded);
  return j;
}

// ------------------------------------------------------------- shutdown

void SurveyService::drain() {
  {
    std::unique_lock lock{admission_mu_};
    done_cv_.wait(lock, [&] { return pending_ == 0; });
  }
  if (!config_.checkpoint_path.empty()) {
    // Throws when the file cannot be written; the checkpoint stays dirty
    // and a parked plan error stays parked for the next drain(). A service
    // that admitted and recorded nothing (its restore() refused the file)
    // leaves the file as it found it.
    std::lock_guard lock{checkpoint_mu_};
    if (checkpoint_dirty_ || admitted_.load() != 0) {
      save_checkpoint_locked();
      checkpoint_dirty_ = false;
    }
  }
  std::exception_ptr plan_error;
  {
    std::lock_guard lock{admission_mu_};
    plan_error = std::exchange(plan_error_, nullptr);
  }
  if (plan_error) std::rethrow_exception(plan_error);
}

void SurveyService::stop() {
  {
    std::lock_guard lock{admission_mu_};
    stopped_ = true;
  }
  // Park the drain result until the machinery is down: stop() must retire
  // the workers even when the plan was broken.
  std::exception_ptr plan_error;
  try {
    drain();
  } catch (...) {
    plan_error = std::current_exception();
  }
  if (checkpoint_thread_.joinable()) {
    {
      std::lock_guard lock{checkpoint_mu_};
      checkpoint_stop_ = true;
    }
    checkpoint_cv_.notify_all();
    checkpoint_thread_.join();
  }
  if (pool_) {
    // The join runs outside the lock (a worker may be waiting on it); the
    // retired pool is published under it, for snapshot() and
    // scheduler_stats().
    pool_->shutdown();
    std::lock_guard lock{admission_mu_};
    final_workers_ = pool_->size();
    final_stats_ = pool_->stats();
    pool_.reset();
  }
  if (plan_error) std::rethrow_exception(plan_error);
}

// ------------------------------------------------------ merged results

std::unique_lock<std::mutex> SurveyService::quiescent() {
  std::unique_lock lock{admission_mu_};
  if (pending_ != 0) {
    throw std::logic_error{"SurveyService: results are available once drained"};
  }
  return lock;
}

core::SurveyEvent SurveyService::survey_end_locked() const {
  core::SurveyEvent end;
  end.targets = participants_;
  end.rounds = config_.rounds;
  end.measurements = measurements_;
  end.at = virtual_end_;
  // Failure accounting in global-index order (failed_shards counts
  // failed targets).
  for (const auto& [index, target] : targets_) {
    if (target.state != AdmittedTarget::State::kFailed) continue;
    end.degraded = true;
    ++end.failed_shards;
    end.failed_targets.push_back(target.name);
  }
  return end;
}

std::vector<core::Measurement> SurveyService::measurements() {
  auto lock = quiescent();
  if (!config_.retain_results) {
    throw std::logic_error{"SurveyService: measurements() needs retain_results"};
  }
  std::vector<core::Measurement> out;
  out.reserve(measurements_);
  for (const auto& [name, index] : names_) {
    const std::vector<core::Measurement>& log = targets_.at(index).log;
    out.insert(out.end(), log.begin(), log.end());
  }
  return out;
}

const metrics::MetricEngine& SurveyService::metrics() {
  auto lock = quiescent();
  return merged_;
}

core::SurveyEvent SurveyService::survey_end() {
  auto lock = quiescent();
  return survey_end_locked();
}

void SurveyService::emit_jsonl(report::JsonlWriter& out) {
  auto lock = quiescent();
  if (!config_.retain_results) {
    throw std::logic_error{"SurveyService: emit_jsonl() needs retain_results"};
  }
  const core::SurveyEvent end = survey_end_locked();
  const core::SurveyEvent begin{end.targets, config_.rounds, 0, util::TimePoint::epoch()};
  out.write_line(
      [&](report::JsonWriter& w) { report::write_survey_event(w, "survey_begin", begin); });
  // The canonical walk: done targets by name, each log already in (test,
  // at) order, cut into chunks that know their first measurement's index.
  std::vector<const AdmittedTarget*> walk;
  std::vector<std::size_t> first_measurement;
  std::size_t measurements = 0;
  for (const auto& [name, index] : names_) {
    const AdmittedTarget& target = targets_.at(index);
    if (target.state != AdmittedTarget::State::kDone) continue;
    if (walk.size() % kEmitChunkTargets == 0) first_measurement.push_back(measurements);
    walk.push_back(&target);
    measurements += target.log.size();
  }
  const auto chunk_targets = [&](std::size_t chunk) {
    const std::size_t begin = chunk * kEmitChunkTargets;
    return std::span{walk}.subspan(begin, std::min(kEmitChunkTargets, walk.size() - begin));
  };
  util::WorkStealingPool* pool = pool_.get();
  const std::size_t chunks = first_measurement.size();
  write_in_order(
      pool, chunks,
      [&](std::size_t chunk, report::JsonlLines& lines) {
        LinesSink sink{lines};
        std::size_t i = first_measurement[chunk];
        for (const AdmittedTarget* target : chunk_targets(chunk)) {
          for (const core::Measurement& m : target->log) {
            core::publish_result(sink, m.target, m.test, m.at, m.result, i++);
          }
        }
      },
      out);
  out.write_line(
      [&](report::JsonWriter& w) { report::write_survey_event(w, "survey_end", end); });
  // Every metric key names a done target (one world per target, restored
  // records checked at admission), so the same walk is canonical key order.
  write_in_order(
      pool, chunks,
      [&](std::size_t chunk, report::JsonlLines& lines) {
        for (const AdmittedTarget* target : chunk_targets(chunk)) {
          merged_.append_records(target->name, lines);
        }
      },
      out);
  if (end.degraded) {
    out.write_line([&](report::JsonWriter& w) {
      w.begin_object().key("type").string("participation").key("targets").begin_array();
      for (const auto& [index, target] : targets_) {
        w.begin_object()
            .key("target").string(target.name)
            .key("participated").boolean(target.state != AdmittedTarget::State::kFailed)
            .end_object();
      }
      w.end_array().end_object();
    });
  }
}

// ------------------------------------------------- failure accounting

bool SurveyService::degraded() {
  auto lock = quiescent();
  return failed_.load() > 0;
}

std::vector<std::size_t> SurveyService::failed_target_indices() {
  auto lock = quiescent();
  std::vector<std::size_t> out;
  for (const auto& [index, target] : targets_) {
    if (target.state == AdmittedTarget::State::kFailed) out.push_back(index);
  }
  return out;
}

std::vector<std::string> SurveyService::failure_messages() {
  auto lock = quiescent();
  std::vector<std::string> out;
  for (const auto& [index, target] : targets_) {
    if (target.state == AdmittedTarget::State::kFailed) out.push_back(target.error);
  }
  return out;
}

int SurveyService::attempts(std::size_t index) const {
  std::lock_guard lock{admission_mu_};
  return targets_.at(index).attempts;
}

std::vector<std::pair<std::string, bool>> SurveyService::participation() {
  auto lock = quiescent();
  std::vector<std::pair<std::string, bool>> out;
  out.reserve(targets_.size());
  for (const auto& [index, target] : targets_) {
    out.emplace_back(target.name, target.state != AdmittedTarget::State::kFailed);
  }
  return out;
}

// ----------------------------------------------------------- checkpoint

void SurveyService::checkpoint_loop() {
  std::unique_lock lock{checkpoint_mu_};
  for (;;) {
    checkpoint_cv_.wait_for(lock, config_.checkpoint_interval,
                            [&] { return checkpoint_stop_; });
    if (checkpoint_dirty_) {
      try {
        save_checkpoint_locked();
        checkpoint_dirty_ = false;
      } catch (const std::exception&) {
        // Still dirty: the next tick retries, and drain() makes the last
        // save on its caller's thread, where a lasting failure throws.
      }
    }
    if (checkpoint_stop_) return;
  }
}

void SurveyService::save_checkpoint_locked() {
  // Header written fresh every save: `targets` tracks admissions (or the
  // records held, when restored ones are not all re-admitted yet),
  // shards == 0 marks the per-target (service) record granularity, and
  // the plan fields name what the records were measured under. A lean
  // service's file may hold carried records with payloads next to its
  // own without, so it never claims them.
  checkpoint_.set_header(core::SurveyCheckpoint::Header{
      0, std::max(admitted_.load(), checkpoint_.completed_count()), config_.rounds,
      config_.seed, config_.run.samples, config_.retain_results});
  checkpoint_.save(config_.checkpoint_path);
}

}  // namespace reorder::service
