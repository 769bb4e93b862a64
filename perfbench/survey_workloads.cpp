// The survey-path workload, driven through service::SurveyService.
//
//   survey_batch  ~20k synthetic targets admitted at once, drained, and the
//                 canonical JSONL emitted into a digest stream.
//
// The fleet is the survey_service example's synthetic population: half
// the paths reorder, single-connection + syn, 15 samples, one round.
//
// The traced run also runs the resident-daemon configuration once (the
// durable probe): the first 10k targets into a lean service whose
// checkpoint is rewritten at the default 200 ms cadence, admitted in
// 64-target batches while the admitting thread polls snapshot() every
// ~100 ms until drain() returns. It is not a timed workload. Completing
// workers wait on every rewrite of the whole checkpoint, and a slower host
// both needs more cadence ticks and makes each rewrite longer, so its run
// time moves with the square of host speed: over ten seeds its targets/s
// spread past the 25% bound the timed workloads hold.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <thread>

#include "bench.hpp"
#include "core/checkpoint.hpp"
#include "core/survey_testbed.hpp"
#include "metrics/engine.hpp"
#include "report/jsonl.hpp"
#include "service/survey_service.hpp"
#include "util/random.hpp"
#include "util/shard_seeder.hpp"

namespace perfbench {

namespace {

using namespace reorder;

constexpr std::size_t kAdmitBatch = 64;
constexpr double kSnapshotEvery = 0.1;  // seconds
constexpr std::chrono::milliseconds kCheckpointEvery{200};

using Fleet = std::vector<core::SurveyTargetConfig>;

Fleet synthesize(std::size_t targets, std::uint64_t seed) {
  util::Rng population{seed};
  Fleet out;
  out.reserve(targets);
  for (std::size_t i = 0; i < targets; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    if (population.bernoulli(0.5)) {
      const double fwd = std::min(0.35, population.exponential(0.08));
      target.forward.swap_probability = fwd;
      target.reverse.swap_probability = fwd * population.uniform(0.1, 0.6);
    }
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    out.push_back(std::move(target));
  }
  return out;
}

service::SurveyServiceConfig plan(std::uint64_t seed) {
  service::SurveyServiceConfig cfg;
  cfg.seed = seed;
  cfg.workers = load_threads();
  cfg.run.samples = 15;
  cfg.rounds = 1;
  cfg.between = util::Duration::seconds(1);
  return cfg;
}


// ------------------------------------------------------ layer values
struct Cell {
  double value{0.0};
  std::optional<double> pct;
  bool on_path{false};
  std::string input;
};

/// Every survey-path ledger row, filled from the probes first and
/// overwritten by the workload's own run where it exercises the layer.
struct SurveyLayers {
  Cell testbed_build_us, simulate_us, events, observe_ns, steals, steal_attempts, finalize_ms,
      emit_ns, bytes_per_target, snapshot_ms, checkpoint_ms, checkpoint_bytes;

  void emit(Report& report) const {
    const auto row = [&](const char* name, const Cell& c, const char* unit) {
      report.layer(name, c.value, unit, c.pct, c.on_path, c.input);
    };
    row("core.testbed_build_us_per_target", testbed_build_us, "us");
    row("core.simulate_us_per_measurement", simulate_us, "us");
    row("netsim.events_per_measurement", events, "count");
    row("metrics.observe_ns_per_measurement", observe_ns, "ns");
    row("util.steals_per_job", steals, "ratio");
    row("util.steal_attempts_per_job", steal_attempts, "ratio");
    row("service.finalize_ms", finalize_ms, "ms");
    row("report.emit_ns_per_record", emit_ns, "ns");
    row("report.bytes_per_target", bytes_per_target, "B");
    row("service.snapshot_ms", snapshot_ms, "ms");
    row("core.checkpoint_save_ms", checkpoint_ms, "ms");
    row("core.checkpoint_bytes_per_target", checkpoint_bytes, "B");
  }
};

using Sample = std::vector<std::pair<std::size_t, core::SurveyTargetConfig>>;

Sample sample_of(const Fleet& fleet, std::size_t count) {
  Sample out;
  count = std::min(count, fleet.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t index = i * fleet.size() / count;
    out.emplace_back(index, fleet[index]);
  }
  return out;
}

class EndCapture final : public core::ResultSink {
 public:
  void on_survey_end(const core::SurveyEvent& e) override { end = e; }
  core::SurveyEvent end{};
};

/// Times SurveyCheckpoint::save of `checkpoint` (median of three) and
/// reloads the file: {save ms, bytes per target}.
std::pair<double, double> time_checkpoint_save(const core::SurveyCheckpoint& checkpoint,
                                               std::size_t targets, const std::string& path,
                                               Report& report) {
  std::vector<double> save_ms;
  for (int i = 0; i < 3; ++i) {
    const double t0 = wall_s();
    checkpoint.save(path);
    save_ms.push_back((wall_s() - t0) * 1e3);
  }
  const core::SurveyCheckpoint reloaded = core::SurveyCheckpoint::load(path);
  report.check(reloaded.completed_count() == targets && reloaded.torn_records() == 0,
               "survey: saved checkpoint did not reload intact");
  const double bytes = static_cast<double>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
  return {median(save_ms), bytes / static_cast<double>(targets)};
}

/// Runs each sampled target as its own world, the way the service's
/// workers do (identity pinned from the global index), timing the layers
/// in turn: testbed construction, the survey engine's run, and a replay of
/// the captured measurements into a fresh MetricEngine. The worlds' results
/// also fill a checkpoint, saved and reloaded. Returns the measurements
/// each target took.
double probe_worlds(const Sample& sample, const service::SurveyServiceConfig& cfg, double seconds,
                    const std::string& work_dir, const std::string& input, Report& report,
                    SurveyLayers& layers) {
  const util::ShardSeeder seeder{cfg.seed};
  std::vector<double> build_us, sim_us, events, observe_ns;
  core::SurveyCheckpoint checkpoint;
  checkpoint.set_header(core::SurveyCheckpoint::Header{0, sample.size(), cfg.rounds, cfg.seed});
  double measurements_per_target = 0.0;
  repeat_for(seconds, 1, [&] {
    double build = 0.0, sim = 0.0;
    std::uint64_t executed = 0;
    std::size_t measurements = 0;
    std::vector<core::ShardRunResult> results;
    for (const auto& [index, config] : sample) {
      core::SurveyTargetConfig target = config;
      const util::TargetSeeds seeds = seeder.target(index);
      if (target.address == tcpip::Ipv4Address{}) {
        target.address = core::default_target_address(index);
      }
      target.host_seed = seeds.host_seed;
      target.ipid_initial = seeds.ipid_initial;
      target.forward_path_tag = seeds.forward_tag;
      target.reverse_path_tag = seeds.reverse_tag;
      core::SurveyTestbedConfig world;
      world.seed = cfg.seed;
      world.probe_addr = cfg.probe_addr;
      world.targets.push_back(std::move(target));

      const double t0 = wall_s();
      core::SurveyTestbed bed{std::move(world)};
      build += wall_s() - t0;
      core::SurveyEngine::Options engine_options = cfg.engine;
      engine_options.retain_samples = true;
      core::SurveyEngine engine{bed.loop(), engine_options};
      bed.populate(engine);
      EndCapture end;
      engine.add_sink(end);
      const double t1 = wall_s();
      engine.run(cfg.run, cfg.rounds, cfg.between);
      sim += wall_s() - t1;
      executed += bed.loop().events_executed();

      core::ShardRunResult result;
      result.shard = index;
      result.log = engine.release_measurements();
      result.metrics.merge(engine.metrics());
      result.end = end.end;
      measurements += result.log.size();
      results.push_back(std::move(result));
    }
    metrics::MetricEngine replay;
    const double t2 = wall_s();
    std::size_t i = 0;
    for (const core::ShardRunResult& r : results) {
      for (const core::Measurement& m : r.log) {
        replay.observe_measurement(core::MeasurementEvent{m.target, m.test, i++, m.at, m.result});
      }
    }
    const double observe = wall_s() - t2;
    const double n = static_cast<double>(std::max<std::size_t>(1, measurements));
    build_us.push_back(build * 1e6 / static_cast<double>(sample.size()));
    sim_us.push_back(sim * 1e6 / n);
    events.push_back(static_cast<double>(executed) / n);
    observe_ns.push_back(observe * 1e9 / n);
    measurements_per_target = n / static_cast<double>(sample.size());
    for (const core::ShardRunResult& r : results) checkpoint.record_shard(r);
  });
  report.check(measurements_per_target > 0.0, "survey: sampled worlds took no measurements");

  char label[96];
  std::snprintf(label, sizeof label, "%s, %zu sampled worlds", input.c_str(), sample.size());
  layers.testbed_build_us = Cell{median(build_us), std::nullopt, false, label};
  layers.simulate_us = Cell{median(sim_us), std::nullopt, false, label};
  layers.events = Cell{median(events), std::nullopt, false, label};
  layers.observe_ns = Cell{median(observe_ns), std::nullopt, false, label};
  const auto [save_ms, bytes] =
      time_checkpoint_save(checkpoint, sample.size(), work_dir + "/sample.ckpt", report);
  layers.checkpoint_ms = Cell{save_ms, std::nullopt, false, label};
  layers.checkpoint_bytes = Cell{bytes, std::nullopt, false, label};
  return measurements_per_target;
}

/// A retained service over the sample: the scheduler, finalize, emit and
/// snapshot layers for runs whose own path skips them.
void probe_sample_service(const Sample& sample, const service::SurveyServiceConfig& base,
                          const std::string& input, Report& report, SurveyLayers& layers) {
  service::SurveyServiceConfig cfg = base;
  cfg.retain_results = true;
  service::SurveyService svc{cfg};
  for (const auto& [index, target] : sample) svc.admit(target, index);
  svc.drain();
  const double t0 = wall_s();
  const service::SurveyService::Snapshot snap = svc.snapshot();
  const double snapshot_s = wall_s() - t0;
  const double t1 = wall_s();
  const std::size_t measurements = svc.measurements().size();
  const double finalize_s = wall_s() - t1;
  DigestBuf digest;
  std::ostream os{&digest};
  report::JsonlWriter writer{os};
  const double t2 = wall_s();
  svc.emit_jsonl(writer);
  const double emit_s = wall_s() - t2;
  const util::WorkStealingPool::Stats sched = svc.scheduler_stats();
  report.check(svc.failed() == 0 && snap.completed == sample.size() && measurements > 0,
               "survey: sample service did not complete every target");
  const double jobs = static_cast<double>(std::max<std::uint64_t>(1, sched.executed));
  const double records = static_cast<double>(std::max<std::size_t>(1, writer.lines_written()));
  char label[96];
  std::snprintf(label, sizeof label, "%s, %zu-target sample service", input.c_str(),
                sample.size());
  layers.steals = Cell{static_cast<double>(sched.stolen) / jobs, std::nullopt, false, label};
  layers.steal_attempts =
      Cell{static_cast<double>(sched.steal_attempts) / jobs, std::nullopt, false, label};
  layers.finalize_ms = Cell{finalize_s * 1e3, std::nullopt, false, label};
  layers.emit_ns = Cell{emit_s * 1e9 / records, std::nullopt, false, label};
  layers.bytes_per_target = Cell{static_cast<double>(digest.bytes()) /
                                     static_cast<double>(sample.size()),
                                 std::nullopt, false, label};
  layers.snapshot_ms = Cell{snapshot_s * 1e3, std::nullopt, false, label};
}

/// Marks the per-target world layers as on the workload's path and gives
/// them a share of its end-to-end time (`e2e_us` wall per target, the
/// layers spread over `workers`).
void place_world_layers(SurveyLayers& layers, double per_target_measurements, double e2e_us,
                        std::size_t workers) {
  const double w = static_cast<double>(workers);
  const auto share = [&](double us_per_target) { return 100.0 * us_per_target / w / e2e_us; };
  layers.testbed_build_us.on_path = layers.simulate_us.on_path = layers.events.on_path =
      layers.observe_ns.on_path = true;
  layers.testbed_build_us.pct = share(layers.testbed_build_us.value);
  layers.simulate_us.pct = share(layers.simulate_us.value * per_target_measurements);
  layers.observe_ns.pct = share(layers.observe_ns.value * 1e-3 * per_target_measurements);
}

std::size_t sample_size(const Options& options) { return options.smoke ? 4 : 256; }

// ---------------------------------------------------------- survey_batch
struct BatchRep {
  double wall_s{0.0};
  double cpu_s{0.0};
  double finalize_s{0.0};
  double emit_s{0.0};
  std::uint64_t digest{0};
  std::uint64_t bytes{0};
  std::uint64_t records{0};
  util::WorkStealingPool::Stats sched{};
};

BatchRep batch_rep(const Fleet& fleet, service::SurveyServiceConfig cfg, bool traced,
                   Report& report) {
  cfg.retain_results = true;
  service::SurveyService svc{cfg};
  Fleet admitted = fleet;  // admission consumes the configs
  DigestBuf digest;
  std::ostream os{&digest};
  report::JsonlWriter writer{os};
  BatchRep out;
  const double cpu0 = process_cpu_s();
  const double t0 = wall_s();
  svc.admit(std::move(admitted));
  svc.drain();
  if (traced) {
    // The canonical sort and merge emit_jsonl() would otherwise do first.
    const double t1 = wall_s();
    report.check(!svc.measurements().empty(), "survey_batch: no measurements");
    out.finalize_s = wall_s() - t1;
  }
  const double t2 = wall_s();
  svc.emit_jsonl(writer);
  out.emit_s = wall_s() - t2;
  out.wall_s = wall_s() - t0;
  out.cpu_s = process_cpu_s() - cpu0;
  out.digest = digest.digest();
  out.bytes = digest.bytes();
  out.records = writer.lines_written();
  out.sched = svc.scheduler_stats();
  const bool ok = svc.failed() == 0 && !svc.degraded() && svc.completed() == fleet.size();
  report.check(ok, "survey_batch: failed or degraded targets");
  report.attempted += fleet.size();
  report.failed += ok ? 0 : fleet.size();
  return out;
}

// --------------------------------------------------------- durable probe
struct DurableRep {
  double wall_s{0.0};
  /// Each live snapshot() call's duration.
  std::vector<double> snapshot_s;
};

/// One resident-daemon run: batched admission with snapshot polling, then
/// drain(), which writes the final checkpoint. The checkpoint is then
/// reloaded and must hold every target with no torn record; `drained`
/// receives it.
DurableRep durable_rep(const Fleet& fleet, const service::SurveyServiceConfig& cfg,
                       std::size_t admit_batch, Report& report, core::SurveyCheckpoint& drained) {
  std::filesystem::remove(cfg.checkpoint_path);
  service::SurveyService svc{cfg};
  DurableRep out;
  std::size_t snapshot_failed = 0;
  const auto snapshot = [&] {
    const double ts = wall_s();
    const service::SurveyService::Snapshot snap = svc.snapshot();
    out.snapshot_s.push_back(wall_s() - ts);
    snapshot_failed += snap.failed;
  };
  const double t0 = wall_s();
  double next_snapshot = t0 + kSnapshotEvery;
  const auto poll = [&] {
    if (wall_s() < next_snapshot) return;
    snapshot();
    next_snapshot += kSnapshotEvery;
  };
  for (std::size_t first = 0; first < fleet.size(); first += admit_batch) {
    const std::size_t last = std::min(fleet.size(), first + admit_batch);
    svc.admit(Fleet(fleet.begin() + static_cast<std::ptrdiff_t>(first),
                     fleet.begin() + static_cast<std::ptrdiff_t>(last)));
    poll();
  }
  while (svc.completed() + svc.failed() < fleet.size()) {
    poll();
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  svc.drain();
  out.wall_s = wall_s() - t0;
  if (out.snapshot_s.empty()) snapshot();  // a run shorter than one poll period
  svc.stop();

  drained = core::SurveyCheckpoint::load(cfg.checkpoint_path);
  std::filesystem::remove(cfg.checkpoint_path);
  const bool ok = svc.failed() == 0 && snapshot_failed == 0 &&
                  drained.completed_count() == fleet.size() && drained.torn_records() == 0;
  report.check(ok, "durable probe: failed targets, or the checkpoint does not reload every "
                   "target intact");
  report.attempted += fleet.size();
  report.failed += ok ? 0 : fleet.size();
  return out;
}

/// Time the background checkpoint spends saving over a run of `wall_s`
/// that drain()'s final save closes: one save per cadence tick after the
/// previous save finished, each costing the final save's time scaled by
/// the share of targets completed by then (completions taken as linear in
/// time up to the final save), plus the final save itself.
double estimated_checkpoint_s(double wall_s, double final_save_s) {
  const double tick = std::chrono::duration<double>(kCheckpointEvery).count();
  const double end = wall_s - final_save_s;
  double total = final_save_s;
  for (double t = tick; t < end; t += tick) {
    const double save = final_save_s * t / end;
    total += save;
    t += save;
  }
  return total;
}

/// The resident-daemon configuration, run once over `fleet`: fills the
/// live snapshot and checkpoint rows, and adds ledger rows for the probe's
/// own rate and the shares of its wall time.
void probe_durable(const Options& options, const Fleet& fleet, Report& report,
                   SurveyLayers& layers) {
  service::SurveyServiceConfig cfg = plan(options.seed);
  cfg.retain_results = false;
  cfg.checkpoint_path = options.work_dir + "/service.ckpt";
  cfg.checkpoint_interval = kCheckpointEvery;
  report.checkpoint_fs = filesystem_kind(options.work_dir);
  core::SurveyCheckpoint drained;
  const DurableRep rep =
      durable_rep(fleet, cfg, options.smoke ? 8 : kAdmitBatch, report, drained);
  const auto [save_ms, bytes] =
      time_checkpoint_save(drained, fleet.size(), options.work_dir + "/resave.ckpt", report);

  char label[96];
  std::snprintf(label, sizeof label, "durable probe: lean %zu-target service, %lld ms checkpoint",
                fleet.size(), static_cast<long long>(kCheckpointEvery.count()));
  layers.snapshot_ms = Cell{1e3 * median(rep.snapshot_s), std::nullopt, false, label};
  layers.checkpoint_ms = Cell{save_ms, std::nullopt, false, label};
  layers.checkpoint_bytes = Cell{bytes, std::nullopt, false, label};

  double snapshot_total = 0.0;
  for (const double s : rep.snapshot_s) snapshot_total += s;
  const double n = static_cast<double>(fleet.size());
  report.ledger.push_back(LedgerRow{"durable.targets_per_s", n / rep.wall_s, "1/s", std::nullopt,
                                    false, label});
  report.ledger.push_back(LedgerRow{"durable.snapshot_share_pct",
                                    100.0 * snapshot_total / rep.wall_s, "%", std::nullopt, false,
                                    label});
  report.ledger.push_back(
      LedgerRow{"durable.checkpoint_share_pct_est",
                100.0 * estimated_checkpoint_s(rep.wall_s, save_ms * 1e-3) / rep.wall_s, "%",
                std::nullopt, false, label});
}

}  // namespace

void run_survey_batch(const Options& options, Report& report) {
  const std::size_t targets = options.smoke ? 24 : 20000;
  Fleet fleet;
  SetupClock setup{options, [&] {
    // Only synthesis and construction are timed; the service is released
    // after the clock is read. Every synthesis of the seed is the same fleet.
    fleet = {};
    const double t0 = wall_s();
    fleet = synthesize(targets, options.seed);
    std::optional<service::SurveyService> svc{std::in_place, plan(options.seed)};
    return wall_s() - t0;
  }};
  setup.tick();
  const service::SurveyServiceConfig cfg = plan(options.seed);
  report.threads = 1 + cfg.workers;

  // The digest must not depend on the worker count: a first, untimed rep
  // on another count gives the digest every timed rep must match (and
  // warms the allocator).
  service::SurveyServiceConfig other = cfg;
  other.workers = cfg.workers > 1 ? cfg.workers - 1 : cfg.workers + 1;
  const std::uint64_t want = batch_rep(fleet, other, false, report).digest;
  reset_peak_rss();

  const double n = static_cast<double>(fleet.size());
  if (!options.trace) {
    std::vector<double> rate, cpu_ms;
    repeat_for(options.smoke ? 0.0 : options.seconds, 3, [&] {
      setup.tick();
      const BatchRep r = batch_rep(fleet, cfg, false, report);
      report.check(r.digest == want, "survey_batch: canonical JSONL digest differs");
      rate.push_back(n / r.wall_s);
      cpu_ms.push_back(r.cpu_s * 1e3 / n);
    });
    const double rss = setup.peak_rss_mb();
    const double setup_s = setup.median_s();
    report.metric("setup_s", setup_s, "s");
    report.metric("items_per_s", median(rate), "1/s");
    report.metric("cpu_us_per_item", median(cpu_ms) * 1e3, "us");
    report.metric("peak_rss_mb", rss, "MB");
    report.show("setup_s", setup_s, "s");
    report.show("targets_per_s", median(rate), "1/s");
    report.show("cpu_ms_per_target", median(cpu_ms), "ms");
    report.show("peak_rss_mb", rss, "MB");
    return;
  }

  // Untraced and traced repetitions alternate; every share and the
  // tracing overhead are taken against the untraced median.
  std::vector<double> plain_s, traced_s, finalize_s, emit_ns;
  BatchRep traced;
  repeat_for(options.smoke ? 0.0 : 0.5 * options.seconds, 3, [&] {
    const BatchRep plain = batch_rep(fleet, cfg, false, report);
    traced = batch_rep(fleet, cfg, true, report);
    report.check(plain.digest == want && traced.digest == want,
                 "survey_batch: canonical JSONL digest differs");
    plain_s.push_back(plain.wall_s);
    traced_s.push_back(traced.wall_s);
    finalize_s.push_back(traced.finalize_s);
    emit_ns.push_back(traced.emit_s * 1e9 / static_cast<double>(traced.records));
  });
  const double wall = median(plain_s);
  const double rss = peak_rss_mb();
  const std::string input = "workload fleet";

  SurveyLayers layers;
  const double per_target = probe_worlds(sample_of(fleet, sample_size(options)), cfg,
                                         options.smoke ? 0.0 : 0.2 * options.seconds,
                                         options.work_dir, input, report, layers);
  probe_durable(options,
                Fleet(fleet.begin(), fleet.begin() + static_cast<std::ptrdiff_t>(
                                                         std::min<std::size_t>(10000, targets))),
                report, layers);
  place_world_layers(layers, per_target, wall * 1e6 / n, cfg.workers);
  const double jobs = static_cast<double>(std::max<std::uint64_t>(1, traced.sched.executed));
  layers.steals = Cell{static_cast<double>(traced.sched.stolen) / jobs, std::nullopt, true, input};
  layers.steal_attempts =
      Cell{static_cast<double>(traced.sched.steal_attempts) / jobs, std::nullopt, true, input};
  const double emit = median(emit_ns);
  layers.finalize_ms = Cell{median(finalize_s) * 1e3, 100.0 * median(finalize_s) / wall, true, input};
  layers.emit_ns =
      Cell{emit, 100.0 * emit * 1e-9 * static_cast<double>(traced.records) / wall, true, input};
  layers.bytes_per_target = Cell{static_cast<double>(traced.bytes) / n, std::nullopt, true, input};
  layers.emit(report);
  report.layer("trace.overhead_pct", 100.0 * (median(traced_s) / wall - 1.0), "%", std::nullopt,
               true, input);
  report.show("setup_s", setup.median_s(), "s");
  report.show("targets_per_s", n / wall, "1/s");
  report.show("peak_rss_mb", rss, "MB");
}

void probe_survey_companion(const Options& options, Report& report) {
  const Fleet fleet = synthesize(options.smoke ? 4 : 64, options.seed);
  const service::SurveyServiceConfig cfg = plan(options.seed);
  const Sample sample = sample_of(fleet, fleet.size());
  char input[64];
  std::snprintf(input, sizeof input, "companion fleet of %zu", fleet.size());
  SurveyLayers layers;
  probe_worlds(sample, cfg, options.smoke ? 0.0 : 0.05 * options.seconds, options.work_dir, input,
               report, layers);
  probe_sample_service(sample, cfg, input, report, layers);
  layers.emit(report);
}

}  // namespace perfbench
