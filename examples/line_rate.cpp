// line_rate: drive the ingest subsystem at speed and print what it did.
//
// Renders a scenario's monitor-level traffic model (default: the bursty
// interrupt-coalescing shape) into a pre-materialized arrival stream,
// then replays it through ParallelIngestPipeline: the producer packs
// arrivals by flow hash into per-shard SoA sub-batches, each shard's
// lock-free SPSC ring feeds a consumer thread draining the batched fast
// paths of BOTH engines (exact per-flow SequenceEngine and the bounded
// always-on MonitorEngine). Prints the achieved arrivals/s, the transfer
// accounting per shard, then the engines' cross-shard folds — byte-
// identical for every --ingest-shards value, which is the whole point
// of flow pinning.
//
//   $ line_rate [--scenario=interrupt-coalescing] [--seed=1]
//               [--flows=32] [--packets=512] [--repeat=8]
//               [--batch=1024] [--ring=64] [--policy=spin|drop]
//               [--stall-us=0] [--ingest-shards=1] [--jsonl=<path>]
//
// With REORDER_BENCH_JSONL_DIR set (the bench-smoke convention) the
// {"type":"ingest"}, {"type":"monitor"} and {"type":"sequences"} records
// land in $REORDER_BENCH_JSONL_DIR/line_rate.jsonl.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "ingest/parallel_pipeline.hpp"
#include "ingest/pipeline.hpp"
#include "monitor/differential.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace reorder;

  std::int64_t seed = 1;
  std::int64_t flows = 32;
  std::int64_t packets = 512;
  std::int64_t repeat = 8;
  std::int64_t batch = 1024;
  std::int64_t ring = 64;
  std::int64_t stall_us = 0;
  std::int64_t ingest_shards = 1;
  std::string scenario = "interrupt-coalescing";
  std::string policy = "spin";
  std::string jsonl_path;
  util::Flags flags{"line_rate", "threaded SoA-batch ingest of a scenario arrival stream"};
  flags.add_i64("seed", &seed, "traffic model seed");
  flags.add_i64("flows", &flows, "concurrent flows");
  flags.add_i64("packets", &packets, "packets per flow");
  flags.add_i64("repeat", &repeat, "stream replays per run (stretches the measurement)");
  flags.add_i64("batch", &batch, "arrivals per SoA batch");
  flags.add_i64("ring", &ring, "ring capacity in batches");
  flags.add_i64("stall-us", &stall_us, "consumer stall per batch (forces backpressure)");
  flags.add_i64("ingest-shards", &ingest_shards,
                "consumer threads; flows are pinned to them by flow hash");
  flags.add_string("scenario", &scenario, "core scenario name for the traffic model");
  flags.add_string("policy", &policy,
                   "when the ring fills: spin (wait for space, lose nothing) | drop");
  flags.add_string("jsonl", &jsonl_path, "also write ingest/monitor/sequences JSONL here");
  if (!flags.parse(argc, argv)) return 1;
  if (policy != "spin" && policy != "drop") {
    std::fprintf(stderr, "line_rate: --policy must be spin or drop\n");
    return 1;
  }
  const std::pair<const char*, std::int64_t> counts[] = {
      {"ingest-shards", ingest_shards}, {"batch", batch}, {"ring", ring},
      {"flows", flows},                 {"packets", packets}, {"repeat", repeat}};
  for (const auto& [name, value] : counts) {
    if (value < 1) {
      std::fprintf(stderr, "line_rate: --%s must be >= 1\n", name);
      return 1;
    }
  }
  if (stall_us < 0) {
    std::fprintf(stderr, "line_rate: --stall-us must be >= 0\n");
    return 1;
  }

  monitor::TrafficOptions traffic;
  traffic.flows = static_cast<std::size_t>(flows);
  traffic.packets_per_flow = static_cast<std::size_t>(packets);
  const std::vector<ingest::Arrival> stream = ingest::from_monitor(
      monitor::scenario_arrivals(scenario, static_cast<std::uint64_t>(seed), traffic));

  // One Source over `repeat` replays of the rendered stream: the producer
  // re-reads the same arrivals so the measurement runs long enough to
  // mean something without re-rendering traffic.
  std::size_t replays = 0;
  std::size_t cursor = 0;
  const ingest::ParallelIngestPipeline::Source source = [&](ingest::Arrival* out,
                                                            std::size_t max) {
    if (cursor == stream.size()) {
      if (++replays >= static_cast<std::size_t>(repeat)) return std::size_t{0};
      cursor = 0;
    }
    const std::size_t n = std::min(max, stream.size() - cursor);
    for (std::size_t i = 0; i < n; ++i) out[i] = stream[cursor + i];
    cursor += n;
    return n;
  };
  const ingest::Backpressure backpressure =
      policy == "drop" ? ingest::Backpressure::kDrop : ingest::Backpressure::kSpin;

  std::printf("line-rate ingest: %s (seed %lld), %zu arrivals x%lld, policy %s\n",
              scenario.c_str(), static_cast<long long>(seed), stream.size(),
              static_cast<long long>(repeat), policy.c_str());

  ingest::ParallelPipelineConfig config;
  config.shards = static_cast<std::size_t>(ingest_shards);
  config.batch_capacity = static_cast<std::size_t>(batch);
  config.ring_batches = static_cast<std::size_t>(ring);
  config.backpressure = backpressure;
  config.consumer_stall = util::Duration::micros(stall_us);
  config.monitor = true;
  ingest::ParallelIngestPipeline pipeline{config};
  const ingest::ParallelPipelineStats& stats = pipeline.run(source);
  pipeline.flush();

  std::printf("  shards %zu: produced %llu  consumed %llu  dropped %llu  "
              "(sub-batches %llu, imbalance %.3f)\n",
              pipeline.shards(), static_cast<unsigned long long>(stats.arrivals_produced),
              static_cast<unsigned long long>(stats.arrivals_consumed),
              static_cast<unsigned long long>(stats.arrivals_dropped),
              static_cast<unsigned long long>(stats.dispatcher.sub_batches),
              stats.dispatcher.imbalance_ratio);
  for (std::size_t s = 0; s < pipeline.shards(); ++s) {
    const ingest::ShardStats& shard = stats.shards[s];
    std::printf("    shard %zu: dispatched %llu  consumed %llu  dropped %llu  "
                "(flows %zu)\n",
                s, static_cast<unsigned long long>(shard.arrivals_dispatched),
                static_cast<unsigned long long>(shard.arrivals_consumed),
                static_cast<unsigned long long>(shard.arrivals_dropped),
                pipeline.shard_sequences(s).flow_count());
  }
  const double secs = static_cast<double>(stats.wall_ns) / 1e9;
  const double rate = secs > 0.0 ? static_cast<double>(stats.arrivals_consumed) / secs : 0.0;
  std::printf("  wall %.3f ms  ->  %.1f M arrivals/s  (spin waits %llu, producer sleeps %llu, "
              "consumer sleeps %llu)\n",
              secs * 1e3, rate / 1e6, static_cast<unsigned long long>(stats.spin_waits),
              static_cast<unsigned long long>(stats.producer_sleeps),
              static_cast<unsigned long long>(stats.consumer_sleeps));
  const report::Json seq_summary = pipeline.sequences_json();
  const monitor::MonitorEngine merged_monitor = pipeline.merged_monitor();
  std::printf("  sequences: %s flows (folded)\n", seq_summary.find("flows")->dump().c_str());
  std::printf("  monitor:   %s\n", merged_monitor.to_json().dump().c_str());

  const auto write_jsonl = [&](const std::string& path) {
    std::ofstream out{path};
    if (!out) {
      std::fprintf(stderr, "line_rate: cannot open %s\n", path.c_str());
      return false;
    }
    report::JsonlWriter writer{out};
    pipeline.emit_jsonl(writer);
    merged_monitor.emit_jsonl(writer);
    report::Json seq_record;
    seq_record.set("type", "sequences");
    seq_record.set("scenario", scenario);
    seq_record.set("summary", seq_summary);
    writer.write(seq_record);
    return true;
  };
  if (!jsonl_path.empty() && !write_jsonl(jsonl_path)) return 1;
  if (const char* dir = std::getenv("REORDER_BENCH_JSONL_DIR")) {
    const std::string path = std::string{dir} + "/line_rate.jsonl";
    if (write_jsonl(path)) std::printf("  wrote 3 records to %s\n", path.c_str());
  }
  return 0;
}
