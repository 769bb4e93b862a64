// survey_service: the parallel survey runtime as a resident daemon.
//
// Where survey_fleet runs one fleet on one event loop, this process
// ADMITS work continuously into a service::SurveyService: targets stream
// in (a synthetic population, or specs read from a file / stdin), a
// work-stealing pool executes each one as its own simulation world, and
// live fleet-wide snapshots (completion counters, measurement and metric
// key totals, scheduler counters) print mid-run without pausing anything,
// each one consistent cut at a cost independent of the fleet's size.
// Identity is pinned per global admission index, so the canonical JSONL
// this daemon writes after drain is byte-identical to survey_fleet's live
// stream over the same population canonicalized by reorder-merge — admit
// order, batch size, worker count and steal schedule all invisible in the
// output.
//
// SIGTERM/SIGINT stop admission and drain gracefully: in-flight targets
// finish, the checkpoint (when enabled) is durably saved, the summary
// still prints. A run killed outright (SIGKILL) resumes with
// --resume --checkpoint=PATH: completed targets are adopted from the
// checkpoint at admission and only the rest execute.
//
//   $ survey_service --targets=64 --snapshot-every=16
//   $ survey_service --targets=1000000 --lean --narrate-every=100000
//   $ survey_service --admit=fleet.txt --jsonl=out.jsonl
//   $ survey_service --targets=64 --checkpoint=svc.ckpt    # killed...
//   $ survey_service --targets=64 --checkpoint=svc.ckpt --resume
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/survey_testbed.hpp"
#include "report/sinks.hpp"
#include "service/survey_service.hpp"
#include "synthetic_population.hpp"
#include "util/flags.hpp"

namespace {

using namespace reorder;

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

/// Target specs from a file (or stdin via "-"), one per line:
///   <name> [forward_swap [reverse_swap]]
/// Blank lines and '#' comments skipped. Identity (address, seeds) is
/// pinned by the service at admission.
std::vector<core::SurveyTargetConfig> read_specs(const std::string& path) {
  std::ifstream file;
  std::istream* in = &std::cin;
  if (path != "-") {
    file.open(path);
    if (!file) throw std::runtime_error{"survey_service: cannot read " + path};
    in = &file;
  }
  std::vector<core::SurveyTargetConfig> out;
  std::string line;
  while (std::getline(*in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields{line};
    core::SurveyTargetConfig target;
    if (!(fields >> target.name)) continue;  // blank / comment-only line
    double fwd = 0.0;
    double rev = 0.0;
    if (fields >> fwd) target.forward.swap_probability = fwd;
    if (fields >> rev) target.reverse.swap_probability = rev;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    out.push_back(std::move(target));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using util::Duration;

  std::int64_t targets = 8;
  std::int64_t rounds = 1;
  std::int64_t samples = 15;
  std::int64_t seed = 11;
  std::int64_t workers = 0;
  std::int64_t batch = 64;
  std::int64_t snapshot_every = 0;
  std::int64_t narrate_every = -1;
  double reordering_fraction = 0.5;
  bool lean = false;
  bool resume = false;
  std::string admit_path;
  std::string jsonl_path;
  std::string checkpoint_path;

  util::Flags flags{"survey_service", "resident survey service: continuous admission, "
                    "work-stealing execution, live consistent snapshots"};
  flags.add_i64("targets", &targets, "synthetic population size (ignored with --admit)");
  flags.add_i64("rounds", &rounds, "measurement cycles per target");
  flags.add_i64("samples", &samples, "samples per measurement (paper: 15)");
  flags.add_i64("seed", &seed, "service seed (identity + population)");
  flags.add_i64("workers", &workers, "worker threads (0 = hardware)");
  flags.add_i64("batch", &batch, "admission batch size");
  flags.add_i64("snapshot-every", &snapshot_every,
                "print a live service_snapshot JSONL record every N completions (0 = off)");
  flags.add_i64("narrate-every", &narrate_every,
                "narrate every Nth completion (0 = quiet, -1 = auto: full detail up to "
                "10k targets, sampled above)");
  flags.add_double("reordering-fraction", &reordering_fraction,
                   "fraction of synthetic paths that reorder at all");
  flags.add_bool("lean", &lean,
                 "drop per-measurement logs (metrics/snapshots stay exact; no --jsonl)");
  flags.add_bool("resume", &resume, "adopt completed targets from --checkpoint");
  flags.add_string("admit", &admit_path,
                   "admit targets from this spec file ('-' = stdin) instead of synthesizing");
  flags.add_string("jsonl", &jsonl_path, "write the canonical merged JSONL here after drain");
  flags.add_string("checkpoint", &checkpoint_path,
                   "durably record completed targets here (background saves)");
  if (!flags.parse(argc, argv)) return 1;
  if (targets < 1 || rounds < 1 || samples < 1 || workers < 0 || batch < 1) {
    std::fprintf(stderr, "survey_service: --targets/--rounds/--samples/--batch must be >= 1 "
                         "and --workers >= 0\n");
    return 1;
  }
  if (resume && checkpoint_path.empty()) {
    std::fprintf(stderr, "survey_service: --resume needs --checkpoint=PATH\n");
    return 1;
  }
  if (lean && !jsonl_path.empty()) {
    std::fprintf(stderr, "survey_service: --lean drops the logs --jsonl needs\n");
    return 1;
  }
  // Opened before any target runs, so an unwritable --jsonl fails now
  // rather than after the whole survey. Left uncommitted, it removes its
  // tmp file on every exit path.
  std::optional<report::AtomicJsonlFile> jsonl;
  if (!jsonl_path.empty()) {
    try {
      jsonl.emplace(jsonl_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "survey_service: %s\n", e.what());
      return 1;
    }
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::vector<core::SurveyTargetConfig> population;
  try {
    population = admit_path.empty()
                     ? examples::synthetic_population(targets, static_cast<std::uint64_t>(seed),
                                                      reordering_fraction)
                     : read_specs(admit_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  service::SurveyServiceConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.workers = static_cast<std::size_t>(workers);
  cfg.run.samples = static_cast<int>(samples);
  cfg.rounds = static_cast<int>(rounds);
  cfg.between = Duration::seconds(1);
  cfg.retain_results = !lean;
  cfg.checkpoint_path = checkpoint_path;

  report::NarratingSink narrator{report::NarrationPolicy::from_flag(
      narrate_every, population.size(), 2 * population.size())};
  std::mutex narrator_mu;  // the callback runs on every worker
  std::atomic<std::uint64_t> completions{0};
  service::SurveyService* service_ptr = nullptr;
  cfg.on_target_complete = [&](const service::TargetDone& done) {
    {
      std::lock_guard lock{narrator_mu};
      if (narrator.tick()) {
        std::printf("  done #%-8zu %-12.*s %zu measurements by t=%.1fs%s\n", done.index,
                    static_cast<int>(done.name.size()), done.name.data(), done.measurements,
                    done.virtual_end.seconds_f(), done.attempts == 0 ? "  (adopted)" : "");
      }
    }
    const std::uint64_t n = completions.fetch_add(1, std::memory_order_relaxed) + 1;
    if (snapshot_every > 0 && n % static_cast<std::uint64_t>(snapshot_every) == 0 &&
        service_ptr != nullptr) {
      // A live mid-run snapshot, taken from a worker thread while its
      // siblings keep completing: counters and totals read in one short
      // lock hold, whatever the fleet's size.
      std::printf("%s\n", service_ptr->snapshot().to_json().dump().c_str());
    }
  };

  service::SurveyService service{std::move(cfg)};
  service_ptr = &service;

  if (resume) {
    // An unreadable header, another plan's checkpoint or a record that
    // does not decode rejects the resume; the service recorded nothing,
    // so the file is left as it was.
    try {
      const core::SurveyCheckpoint cp = core::SurveyCheckpoint::load(checkpoint_path);
      std::printf("resuming: %zu targets recorded in %s (%zu torn records dropped)\n",
                  cp.completed_count(), checkpoint_path.c_str(), cp.torn_records());
      service.restore(cp);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "survey_service: cannot resume: %s\n", e.what());
      return 1;
    }
  }

  std::printf("service up: %zu workers; admitting %zu targets in batches of %lld\n",
              service.scheduler_stats().executed_by_worker.size(), population.size(),
              static_cast<long long>(batch));

  const auto wall_start = std::chrono::steady_clock::now();
  std::size_t admitted = 0;
  while (admitted < population.size() && !g_stop.load(std::memory_order_relaxed)) {
    const std::size_t n =
        std::min(static_cast<std::size_t>(batch), population.size() - admitted);
    std::vector<core::SurveyTargetConfig> chunk;
    chunk.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      chunk.push_back(std::move(population[admitted + i]));
    }
    try {
      service.admit(std::move(chunk));
    } catch (const std::invalid_argument& e) {
      // Targets admitted before the rejected one still run; the service's
      // destructor drains them, and its final save keeps every restored
      // record.
      std::fprintf(stderr, "survey_service: admission rejected: %s\n", e.what());
      return 1;
    }
    admitted += n;
  }
  if (admitted < population.size()) {
    std::printf("admission interrupted: %zu of %zu targets admitted; draining...\n", admitted,
                population.size());
  }

  try {
    service.drain();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "survey_service: broken plan: %s\n", e.what());
    return 1;
  } catch (const std::runtime_error& e) {
    // The final checkpoint save failed (its message names the path).
    std::fprintf(stderr, "survey_service: %s\n", e.what());
    return 1;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  const service::SurveyService::Snapshot final_snap = service.snapshot();
  std::printf("%s\n", final_snap.to_json().dump().c_str());
  if (service.degraded()) {
    std::printf("DEGRADED: %zu target(s) failed every attempt\n",
                service.failed_target_indices().size());
  }
  const util::WorkStealingPool::Stats sched = service.scheduler_stats();
  std::printf("drained: %zu targets, %zu measurements, virtual t=%.1fs (%.2fs wall)\n",
              service.completed(), final_snap.measurements, final_snap.virtual_end.seconds_f(),
              wall_s);
  std::printf("scheduler: %llu jobs executed, %llu stolen (%llu probes)\n",
              static_cast<unsigned long long>(sched.executed),
              static_cast<unsigned long long>(sched.stolen),
              static_cast<unsigned long long>(sched.steal_attempts));

  if (jsonl) {
    // Canonical merged emission, written crash-safely.
    try {
      service.emit_jsonl(jsonl->writer());
      jsonl->commit();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "survey_service: %s\n", e.what());
      return 1;
    }
    std::printf("streamed %zu JSONL records to %s\n", jsonl->writer().lines_written(),
                jsonl_path.c_str());
  }
  service.stop();
  return 0;
}
