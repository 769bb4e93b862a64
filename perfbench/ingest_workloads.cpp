// The ingest-path workloads: a pre-rendered Arrival stream replayed through
// ingest::ParallelIngestPipeline (the calling thread is the producer and
// dispatcher, one consumer thread per shard).
//
//   ingest_inorder    4096 flows x 512 in-order packets, interleaved in runs
//                     of 16; sequence metrics only.
//   ingest_reordered  the interrupt-coalescing scenario's arrivals at the
//                     same size; sequence metrics and the monitor.
//
// Every replay is checked against a single-thread scalar fold of the same
// stream (SequenceEngine::observe, MonitorEngine::ingest), computed once
// during set-up and not timed.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "ingest/parallel_pipeline.hpp"
#include "ingest/spsc_ring.hpp"
#include "monitor/differential.hpp"
#include "util/shard_seeder.hpp"

namespace perfbench {

namespace {

using namespace reorder;

constexpr std::size_t kBatchCapacity = 1024;
constexpr std::size_t kRingBatches = 64;
constexpr std::size_t kRunLength = 16;

struct StreamShape {
  std::size_t flows;
  std::uint32_t packets;
};

StreamShape workload_shape(const Options& options) {
  return options.smoke ? StreamShape{64, 64} : StreamShape{4096, 512};
}

StreamShape companion_shape(const Options& options) {
  return options.smoke ? StreamShape{32, 64} : StreamShape{256, 512};
}

/// Per-flow in-order send indices, flows visited round-robin in runs of
/// kRunLength; the flow ids (and so the shard split) come from the seed.
std::vector<ingest::Arrival> inorder_stream(std::uint64_t seed, StreamShape shape) {
  std::vector<std::uint64_t> ids(shape.flows);
  for (std::size_t f = 0; f < shape.flows; ++f) {
    ids[f] = util::splitmix64(seed * 0x9e3779b97f4a7c15ull + f + 1);
  }
  std::vector<ingest::Arrival> out;
  out.reserve(shape.flows * shape.packets);
  std::vector<std::uint32_t> next(shape.flows, 0);
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t f = 0; f < shape.flows; ++f) {
      for (std::size_t i = 0; i < kRunLength && next[f] < shape.packets; ++i) {
        out.push_back(ingest::Arrival{ids[f], next[f]++, static_cast<std::int64_t>(out.size())});
      }
      more = more || next[f] < shape.packets;
    }
  }
  return out;
}

std::vector<ingest::Arrival> reordered_stream(std::uint64_t seed, StreamShape shape) {
  monitor::TrafficOptions traffic;
  traffic.flows = shape.flows;
  traffic.packets_per_flow = shape.packets;
  return ingest::from_monitor(monitor::scenario_arrivals("interrupt-coalescing", seed, traffic));
}

/// A table no flow is ever evicted from: 16-way sets and at least four
/// slots per flow, so both the scalar reference and every shard hold all
/// their flows (the condition under which the shard merge is exact).
monitor::MonitorConfig monitor_config(std::size_t flows) {
  monitor::MonitorConfig cfg;
  std::size_t slots = 1024;
  while (slots < 4 * flows) slots <<= 1;
  cfg.table.slots = slots;
  cfg.table.ways = 16;
  return cfg;
}

ingest::ParallelPipelineConfig pipeline_config(bool with_monitor, std::size_t flows) {
  ingest::ParallelPipelineConfig cfg;
  cfg.shards = load_threads();
  cfg.batch_capacity = kBatchCapacity;
  cfg.ring_batches = kRingBatches;
  cfg.backpressure = ingest::Backpressure::kSpin;
  cfg.sequences = true;
  cfg.monitor = with_monitor;
  cfg.monitor_config = monitor_config(flows);
  return cfg;
}

struct Reference {
  std::string sequences;
  std::string monitor;
  std::uint64_t monitor_evictions{0};
};

Reference scalar_reference(const std::vector<ingest::Arrival>& stream,
                           const ingest::ParallelPipelineConfig& cfg) {
  Reference ref;
  ingest::SequenceEngine sequences;
  for (const ingest::Arrival& a : stream) sequences.observe(a.flow, a.send_index);
  sequences.flush();
  ref.sequences = sequences.to_json().dump();
  if (cfg.monitor) {
    monitor::MonitorEngine mon{cfg.monitor_config};
    for (const ingest::Arrival& a : stream) mon.ingest(a.flow, a.send_index);
    mon.flush();
    ref.monitor = mon.to_json().dump();
    ref.monitor_evictions = mon.table().counters().evictions;
  }
  return ref;
}

/// One replay through a fresh pipeline. A traced replay also reads the
/// producer thread's CPU clock and times the merge.
struct Replay {
  double wall_s{0.0};
  double cpu_s{0.0};         ///< process CPU across run()
  double thread_cpu_s{0.0};  ///< the calling (producer) thread's CPU across run()
  double merge_s{0.0};       ///< sequences_json() + merged_monitor()
  ingest::ParallelPipelineStats stats;
};

Replay replay(const std::vector<ingest::Arrival>& stream, const ingest::ParallelPipelineConfig& cfg,
              const Reference& ref, bool traced, Report& report) {
  ingest::ParallelIngestPipeline pipeline{cfg};
  Replay out;
  const double cpu0 = process_cpu_s();
  const double thread0 = traced ? thread_cpu_s() : 0.0;
  const double wall0 = wall_s();
  out.stats = pipeline.run(stream);
  out.wall_s = wall_s() - wall0;
  if (traced) out.thread_cpu_s = thread_cpu_s() - thread0;
  out.cpu_s = process_cpu_s() - cpu0;

  pipeline.flush();
  const double merge0 = traced ? wall_s() : 0.0;
  const report::Json sequences = pipeline.sequences_json();
  std::optional<monitor::MonitorEngine> merged;
  if (cfg.monitor) merged.emplace(pipeline.merged_monitor());
  if (traced) out.merge_s = wall_s() - merge0;

  const ingest::ParallelPipelineStats& s = out.stats;
  bool ok = true;
  const auto check = [&](bool cond, const char* what) {
    if (!cond) {
      report.fail(what);
      ok = false;
    }
  };
  check(s.arrivals_produced == stream.size(), "ingest: produced != stream size");
  check(s.arrivals_consumed + s.arrivals_dropped == s.arrivals_produced,
        "ingest: consumed + dropped != produced");
  check(s.arrivals_dropped == 0, "ingest: arrivals dropped");
  check(sequences.dump() == ref.sequences, "ingest: sequences_json differs from the scalar fold");
  if (merged) {
    check(merged->to_json().dump() == ref.monitor,
          "ingest: merged monitor differs from the scalar fold");
  }
  report.attempted += s.arrivals_produced;
  report.failed += ok ? s.arrivals_dropped : s.arrivals_produced;
  return out;
}

std::vector<ingest::ArrivalBatch> pack(const std::vector<ingest::Arrival>& stream) {
  std::vector<ingest::ArrivalBatch> batches;
  ingest::ArrivalBatchBuilder builder{kBatchCapacity};
  for (const ingest::Arrival& a : stream) {
    if (builder.push(a)) batches.push_back(builder.take());
  }
  if (builder.size() > 0) batches.push_back(builder.take());
  return batches;
}

/// ArrivalBatchBuilder packing of the stream, the producer's first step.
double probe_source_ns(const std::vector<ingest::Arrival>& stream, double seconds) {
  std::vector<double> per_arrival;
  ingest::ArrivalBatchBuilder builder{kBatchCapacity};
  const auto ship = [&] {
    ingest::ArrivalBatch batch = builder.take();
    batch.clear();
    builder.recycle(std::move(batch));
  };
  repeat_for(seconds, 3, [&] {
    const double t0 = wall_s();
    for (const ingest::Arrival& a : stream) {
      if (builder.push(a)) ship();
    }
    ship();
    per_arrival.push_back((wall_s() - t0) * 1e9 / static_cast<double>(stream.size()));
  });
  return median(per_arrival);
}

/// Single-thread SequenceEngine::ingest_batch over the stream's batches:
/// the stream-processing single-thread baseline.
double probe_sequence_fold_ns(const std::vector<ingest::ArrivalBatch>& batches,
                              std::size_t arrivals, double seconds) {
  std::vector<double> per_arrival;
  repeat_for(seconds, 3, [&] {
    ingest::SequenceEngine engine;
    const double t0 = wall_s();
    for (const ingest::ArrivalBatch& b : batches) engine.ingest_batch(b);
    per_arrival.push_back((wall_s() - t0) * 1e9 / static_cast<double>(arrivals));
  });
  return median(per_arrival);
}

struct MonitorProbe {
  double ns_per_arrival{0.0};
  std::uint64_t evictions{0};
};

MonitorProbe probe_monitor_fold(const std::vector<ingest::ArrivalBatch>& batches,
                                std::size_t arrivals, const monitor::MonitorConfig& cfg,
                                double seconds) {
  std::vector<double> per_arrival;
  MonitorProbe out;
  repeat_for(seconds, 3, [&] {
    monitor::MonitorEngine engine{cfg};
    const double t0 = wall_s();
    for (const ingest::ArrivalBatch& b : batches) engine.ingest_batch(b);
    per_arrival.push_back((wall_s() - t0) * 1e9 / static_cast<double>(arrivals));
    out.evictions = engine.table().counters().evictions;
  });
  out.ns_per_arrival = median(per_arrival);
  return out;
}

/// A standalone two-thread SpscRing<ArrivalBatch> hand-off: the producer
/// moves full batches into a data ring, the consumer pops each and returns
/// it through a free ring, as the pipeline recycles its sub-batches. An
/// empty ring makes either side yield, as the pipeline's consumers do.
double probe_ring_handoff_ns(std::size_t handoffs, double seconds, Report& report) {
  std::vector<double> per_batch;
  repeat_for(seconds, 3, [&] {
    ingest::SpscRing<ingest::ArrivalBatch> data{kRingBatches};
    ingest::SpscRing<ingest::ArrivalBatch> free{kRingBatches};
    for (std::size_t i = 0; i < kRingBatches; ++i) {
      ingest::ArrivalBatch batch{kBatchCapacity};
      while (!batch.full()) batch.push(i, static_cast<std::uint32_t>(batch.size()), 0);
      free.try_push(batch);
    }
    std::uint64_t popped_arrivals = 0;
    const double t0 = wall_s();
    std::thread consumer{[&] {
      ingest::ArrivalBatch batch;
      for (std::size_t n = 0; n < handoffs;) {
        if (data.try_pop(batch)) {
          popped_arrivals += batch.size();
          free.push_spin(std::move(batch));
          ++n;
        } else {
          std::this_thread::yield();
        }
      }
    }};
    ingest::ArrivalBatch batch;
    for (std::size_t n = 0; n < handoffs; ++n) {
      while (!free.try_pop(batch)) std::this_thread::yield();
      data.push_spin(std::move(batch));
    }
    consumer.join();
    per_batch.push_back((wall_s() - t0) * 1e9 / static_cast<double>(handoffs));
    report.check(popped_arrivals == handoffs * kBatchCapacity, "ingest: ring hand-off lost batches");
  });
  return median(per_batch);
}

std::optional<double> pct(double part_ns, std::optional<double> whole_ns) {
  if (!whole_ns || *whole_ns <= 0.0) return std::nullopt;
  return 100.0 * part_ns / *whole_ns;
}

/// The traced half of an ingest run: traced replays alternate with
/// untraced ones (their difference is the tracing overhead), then the
/// single-layer probes run on the same stream. Shares of end-to-end time
/// are reported only when the stream is the workload's own (`on_path`).
struct IngestLayers {
  double untraced_ns_per_arrival{0.0};
  double overhead_pct{0.0};
};

IngestLayers trace_ingest_layers(const Options& options, const std::vector<ingest::Arrival>& stream,
                                 const ingest::ParallelPipelineConfig& cfg, const Reference& ref,
                                 bool on_path, const std::string& input, Report& report) {
  const double budget = options.smoke ? 0.0 : options.seconds;
  std::vector<double> untraced_ns, traced_ns, producer_ns, consumer_ns, spins, imbalance, full,
      merge_ms, batches_per_arrival;
  repeat_for(0.5 * budget, 3, [&] {
    const Replay plain = replay(stream, cfg, ref, false, report);
    untraced_ns.push_back(plain.wall_s * 1e9 / static_cast<double>(plain.stats.arrivals_consumed));
    const Replay traced = replay(stream, cfg, ref, true, report);
    const double n = static_cast<double>(traced.stats.arrivals_consumed);
    const ingest::DispatcherStats& d = traced.stats.dispatcher;
    const double subs = static_cast<double>(std::max<std::uint64_t>(1, d.sub_batches));
    traced_ns.push_back(traced.wall_s * 1e9 / n);
    producer_ns.push_back(traced.thread_cpu_s * 1e9 / n);
    consumer_ns.push_back((traced.cpu_s - traced.thread_cpu_s) * 1e9 / n);
    spins.push_back(static_cast<double>(traced.stats.spin_waits) / subs);
    imbalance.push_back(d.imbalance_ratio);
    full.push_back(static_cast<double>(d.fill_hist[7]) / subs);
    merge_ms.push_back(traced.merge_s * 1e3);
    batches_per_arrival.push_back(subs / n);
  });

  IngestLayers out;
  out.untraced_ns_per_arrival = median(untraced_ns);
  out.overhead_pct = 100.0 * (median(traced_ns) / out.untraced_ns_per_arrival - 1.0);
  const std::optional<double> e2e =
      on_path ? std::optional<double>{out.untraced_ns_per_arrival} : std::nullopt;
  const double shards = static_cast<double>(cfg.shards);

  const std::vector<ingest::ArrivalBatch> batches = pack(stream);
  const double probe_s = 0.08 * budget;
  const double source = probe_source_ns(stream, probe_s);
  const double ring = probe_ring_handoff_ns(options.smoke ? 2048 : 200000, probe_s, report);
  const double fold = probe_sequence_fold_ns(batches, stream.size(), probe_s);
  const MonitorProbe mon = probe_monitor_fold(batches, stream.size(), cfg.monitor_config, probe_s);
  report.check(mon.evictions == 0, "ingest: the monitor probe evicted");

  const double producer = median(producer_ns);
  const double consumer = median(consumer_ns);
  const double merge = median(merge_ms);
  const double run_ns = out.untraced_ns_per_arrival * static_cast<double>(stream.size());
  report.layer("ingest.source_ns_per_arrival", source, "ns", pct(source, e2e), on_path, input);
  report.layer("ingest.producer_cpu_ns_per_arrival", producer, "ns", pct(producer, e2e), on_path,
               input);
  report.layer("ingest.consumer_cpu_ns_per_arrival", consumer, "ns",
               pct(consumer / shards, e2e), on_path, input);
  report.layer("ingest.spin_waits_per_batch", median(spins), "1/batch", std::nullopt, on_path,
               input);
  report.layer("ingest.imbalance_ratio", median(imbalance), "ratio", std::nullopt, on_path, input);
  report.layer("ingest.sub_batch_full_share", median(full), "ratio", std::nullopt, on_path, input);
  report.layer("spsc_ring.handoff_ns_per_batch", ring, "ns",
               pct(ring * median(batches_per_arrival), e2e), on_path, input);
  report.layer("metrics.fold_ns_per_arrival", fold, "ns", pct(fold / shards, e2e), on_path, input);
  report.layer("monitor.fold_ns_per_arrival", mon.ns_per_arrival, "ns",
               cfg.monitor ? pct(mon.ns_per_arrival / shards, e2e) : std::nullopt,
               on_path && cfg.monitor, input);
  report.layer("monitor.evictions", static_cast<double>(mon.evictions), "count", std::nullopt,
               on_path && cfg.monitor, input);
  report.layer("ingest.merge_ms", merge, "ms",
               on_path ? std::optional<double>{100.0 * merge * 1e6 / run_ns} : std::nullopt,
               on_path, input);
  return out;
}

}  // namespace

void run_ingest(const Options& options, bool reordered, Report& report) {
  const StreamShape shape = workload_shape(options);
  const ingest::ParallelPipelineConfig cfg = pipeline_config(reordered, shape.flows);
  report.threads = 1 + cfg.shards;

  std::vector<ingest::Arrival> stream;
  SetupClock setup{options, [&] {
    // Only rendering and construction are timed. The previous stream is
    // released first, so no two streams are ever resident at once; every
    // rendering of the seed is the same stream.
    stream = {};
    const double t0 = wall_s();
    stream = reordered ? reordered_stream(options.seed, shape) : inorder_stream(options.seed, shape);
    std::optional<ingest::ParallelIngestPipeline> pipeline{std::in_place, cfg};
    return wall_s() - t0;
  }};
  setup.tick();
  const Reference ref = scalar_reference(stream, cfg);
  report.check(ref.monitor_evictions == 0, "ingest: the scalar monitor reference evicted");

  replay(stream, cfg, ref, false, report);  // warm-up: allocator and caches
  reset_peak_rss();
  if (options.trace) {
    const IngestLayers layers =
        trace_ingest_layers(options, stream, cfg, ref, true, "workload stream", report);
    report.layer("trace.overhead_pct", layers.overhead_pct, "%", std::nullopt, true,
                 "workload stream");
    report.show("setup_s", setup.median_s(), "s");
    report.show("arrivals_per_s", 1e9 / layers.untraced_ns_per_arrival, "1/s");
    report.show("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  std::vector<double> rate, cpu_ns;
  repeat_for(options.smoke ? 0.0 : options.seconds, 3, [&] {
    setup.tick();
    const Replay r = replay(stream, cfg, ref, false, report);
    const double n = static_cast<double>(r.stats.arrivals_consumed);
    rate.push_back(n / r.wall_s);
    cpu_ns.push_back(r.cpu_s * 1e9 / n);
  });
  const double rss = setup.peak_rss_mb();
  const double setup_s = setup.median_s();
  report.metric("setup_s", setup_s, "s");
  report.metric("items_per_s", median(rate), "1/s");
  report.metric("cpu_us_per_item", median(cpu_ns) * 1e-3, "us");
  report.metric("peak_rss_mb", rss, "MB");
  report.show("setup_s", setup_s, "s");
  report.show("arrivals_per_s", median(rate), "1/s");
  report.show("cpu_ns_per_arrival", median(cpu_ns), "ns");
  report.show("peak_rss_mb", rss, "MB");
}

void probe_ingest_companion(const Options& options, Report& report) {
  const StreamShape shape = companion_shape(options);
  const ingest::ParallelPipelineConfig cfg = pipeline_config(true, shape.flows);
  const std::vector<ingest::Arrival> stream = reordered_stream(options.seed, shape);
  const Reference ref = scalar_reference(stream, cfg);
  char input[96];
  std::snprintf(input, sizeof input, "companion interrupt-coalescing %zux%u", shape.flows,
                shape.packets);
  Options probe = options;
  probe.seconds = options.seconds * 0.25;
  trace_ingest_layers(probe, stream, cfg, ref, false, input, report);
}

}  // namespace perfbench
