// The line-rate ingest pipeline's contracts, enforced:
//
//   * flow -> shard stability: shard_of is a pure function, so the same
//     flow never crosses shards — every flow lands in exactly one shard's
//     engine, and that shard is the one the hash names;
//   * sub-batch conservation: the producer's per-shard packing neither
//     invents nor loses lanes — per-shard dispatched arrivals sum to the
//     produced stream, the fill histogram accounts for every shipped
//     sub-batch, and each consumer's engine saw exactly what its ring
//     delivered;
//   * THE tentpole invariant: the folded snapshots/JSONL of the pipeline
//     are byte-identical to the scalar recurrence, over every scenario in
//     the library, for shards in {1,2,4,8}, misaligned batch capacities
//     and both backpressure policies, and at one shard also behind 4-deep
//     rings and through a flow table that evicts — sharding buys cores,
//     never a different answer;
//   * a 200k-arrival threaded run through 4 shards (small rings, constant
//     wrap-around) arrives intact — under the TSAN CI job this is the
//     proof of the producer/consumer fence pairing;
//   * saturation is observable per shard: a stalled kDrop run sheds whole
//     sub-batches and surfaces conservation (consumed + dropped ==
//     produced) and per-shard ring counters in the JSONL record; a stalled
//     kSpin run loses nothing and counts its spins;
//   * a throwing Source, or a throw on a consumer thread, reaches run()'s
//     caller after the consumers are joined, instead of ending the process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "ingest/parallel_pipeline.hpp"
#include "ingest/pipeline.hpp"
#include "monitor/differential.hpp"
#include "monitor/engine.hpp"
#include "report/jsonl.hpp"
#include "util/random.hpp"

namespace reorder::ingest {
namespace {

// Small but structured multi-flow traffic for the equivalence matrix
// (mirrors ingest_test.cpp's grid).
monitor::TrafficOptions small_traffic() {
  monitor::TrafficOptions opt;
  opt.flows = 6;
  opt.packets_per_flow = 64;
  opt.evade_displacement = 20;
  opt.flood_flows = 192;
  opt.flood_packets = 8;
  opt.flood_active = 24;
  opt.coalesce_frames = 12;
  return opt;
}

ParallelPipelineConfig base_config(std::size_t shards, std::size_t batch_capacity,
                                   Backpressure policy) {
  ParallelPipelineConfig cfg;
  cfg.shards = shards;
  cfg.batch_capacity = batch_capacity;
  cfg.ring_batches = 64;
  cfg.backpressure = policy;
  return cfg;
}

// ------------------------------------------------------ flow -> shard

TEST(ParallelIngest, FlowNeverCrossesShards) {
  // Property: after a full run, every flow lives in exactly one shard's
  // engine, and that shard is shard_of(flow, shards) — the pinning that
  // makes per-flow order (and thus the folded snapshot) deterministic.
  const std::vector<Arrival> arrivals =
      from_monitor(monitor::scenario_arrivals("flood-flows", 7, small_traffic()));
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                   std::size_t{8}}) {
    ParallelIngestPipeline pipeline{base_config(shards, 43, Backpressure::kSpin)};
    pipeline.run(arrivals);
    pipeline.flush();
    std::set<std::uint64_t> seen;
    for (std::size_t s = 0; s < shards; ++s) {
      for (const std::uint64_t flow : pipeline.shard_sequences(s).flow_ids()) {
        EXPECT_EQ(shard_of(flow, shards), s) << "flow " << flow << " on wrong shard";
        EXPECT_TRUE(seen.insert(flow).second) << "flow " << flow << " on two shards";
      }
    }
    std::set<std::uint64_t> expected;
    for (const Arrival& a : arrivals) expected.insert(a.flow);
    EXPECT_EQ(seen, expected);
  }
}

TEST(ParallelIngest, SubBatchConservation) {
  // The producer packs arrivals into per-shard sub-batches; the lanes
  // must be conserved: per-shard dispatched arrivals sum to the produced
  // stream, every shipped sub-batch lands in the fill histogram, and each
  // shard's engine observed exactly its dispatched arrivals.
  const std::vector<Arrival> arrivals =
      from_monitor(monitor::scenario_arrivals("interrupt-coalescing", 11, small_traffic()));
  ParallelIngestPipeline pipeline{base_config(4, 37, Backpressure::kSpin)};
  const ParallelPipelineStats& stats = pipeline.run(arrivals);
  pipeline.flush();

  EXPECT_EQ(stats.arrivals_produced, arrivals.size());
  std::uint64_t dispatched = 0;
  std::uint64_t batches = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    const ShardStats& shard = stats.shards[s];
    dispatched += shard.arrivals_dispatched;
    batches += shard.batches_dispatched;
    EXPECT_EQ(shard.arrivals_consumed, shard.arrivals_dispatched) << s;  // kSpin: lossless
    EXPECT_EQ(shard.arrivals_dropped, 0u) << s;
    EXPECT_EQ(pipeline.shard_sequences(s).arrivals(), shard.arrivals_consumed) << s;
    EXPECT_EQ(shard.ring.pushed, shard.batches_dispatched) << s;
    EXPECT_EQ(shard.ring.popped, shard.batches_consumed) << s;
  }
  EXPECT_EQ(dispatched, arrivals.size());
  EXPECT_EQ(stats.arrivals_consumed + stats.arrivals_dropped, stats.arrivals_produced);
  EXPECT_EQ(batches, stats.dispatcher.sub_batches);
  std::uint64_t hist_total = 0;
  for (const std::uint64_t bucket : stats.dispatcher.fill_hist) hist_total += bucket;
  EXPECT_EQ(hist_total, stats.dispatcher.sub_batches);
  EXPECT_GE(stats.dispatcher.imbalance_ratio, 1.0);

  // Every input flow surfaced in exactly one shard, none invented.
  std::set<std::uint64_t> want;
  for (const Arrival& a : arrivals) want.insert(a.flow);
  std::set<std::uint64_t> got;
  for (std::size_t s = 0; s < 4; ++s) {
    for (const std::uint64_t flow : pipeline.shard_sequences(s).flow_ids()) {
      ASSERT_NE(pipeline.shard_sequences(s).flow_suite(flow), nullptr);
      EXPECT_TRUE(got.insert(flow).second) << flow;
    }
  }
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------- folded == scalar

// The scalar recurrence's bytes for one stream: per-arrival observe and
// ingest, no threads — the reference every pipeline fold must equal.
struct ScalarFold {
  std::string sequences;
  std::string monitor;
  std::string monitor_jsonl;
  std::uint64_t evictions{0};
};

ScalarFold scalar_fold(const std::vector<Arrival>& arrivals,
                       const monitor::MonitorConfig& mon_cfg) {
  SequenceEngine seq;
  monitor::MonitorEngine mon{mon_cfg};
  for (const Arrival& a : arrivals) {
    seq.observe(a.flow, a.send_index);
    mon.ingest(a.flow, a.send_index);
  }
  seq.flush();
  mon.flush();
  std::ostringstream jsonl;
  report::JsonlWriter writer{jsonl};
  mon.emit_jsonl(writer);
  return ScalarFold{seq.to_json().dump(), mon.to_json().dump(), jsonl.str(),
                    mon.table().counters().evictions};
}

// Runs `arrivals` through a pipeline built from `cfg` with the monitor on
// and checks that nothing was lost and every fold equals `want`.
void expect_folds_equal(const std::vector<Arrival>& arrivals, ParallelPipelineConfig cfg,
                        const ScalarFold& want, const std::string& label) {
  cfg.monitor = true;
  ParallelIngestPipeline pipeline{cfg};
  const ParallelPipelineStats& stats = pipeline.run(arrivals);
  pipeline.flush();
  ASSERT_EQ(stats.arrivals_produced, arrivals.size()) << label;
  ASSERT_EQ(stats.arrivals_dropped, 0u) << label;
  ASSERT_EQ(stats.arrivals_consumed, arrivals.size()) << label;
  ASSERT_EQ(pipeline.sequences_json().dump(), want.sequences) << label;
  const monitor::MonitorEngine merged = pipeline.merged_monitor();
  ASSERT_EQ(merged.to_json().dump(), want.monitor) << label;
  std::ostringstream jsonl;
  report::JsonlWriter writer{jsonl};
  merged.emit_jsonl(writer);
  ASSERT_EQ(jsonl.str(), want.monitor_jsonl) << label;
}

TEST(ParallelIngest, FoldedSnapshotsBitIdenticalOverEveryScenarioShardsAndPolicies) {
  // THE tentpole: for every scenario, the pipeline's folded
  // sequence/monitor snapshots (and their JSONL bytes) must equal the
  // scalar recurrence's for shards in {1,2,4,8} x both backpressure
  // policies, at a misaligned batch capacity so flow runs split across
  // sub-batch boundaries. The monitor table is provisioned for the
  // scenario's live flows (no eviction), the boundary
  // MonitorEngine::merge documents.
  monitor::MonitorConfig provisioned;
  provisioned.table.slots = 4096;
  for (const std::string& scenario : core::scenarios::names()) {
    const std::vector<Arrival> arrivals =
        from_monitor(monitor::scenario_arrivals(scenario, 31, small_traffic()));
    const ScalarFold want = scalar_fold(arrivals, provisioned);
    ASSERT_EQ(want.evictions, 0u) << scenario;

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                     std::size_t{8}}) {
      for (const Backpressure policy : {Backpressure::kSpin, Backpressure::kDrop}) {
        // 64-deep rings hold the whole stream, so kDrop cannot actually
        // shed here — both policies must land on identical bytes.
        ParallelPipelineConfig cfg = base_config(shards, 43, policy);
        cfg.monitor_config = provisioned;
        expect_folds_equal(arrivals, cfg, want,
                           scenario + " shards " + std::to_string(shards));
      }
    }

    // One shard behind 4-deep rings (constant wrap-around and spin
    // backpressure) with the default MonitorConfig's table.
    ParallelPipelineConfig cfg = base_config(1, 43, Backpressure::kSpin);
    cfg.ring_batches = 4;
    expect_folds_equal(arrivals, cfg, scalar_fold(arrivals, cfg.monitor_config),
                       scenario + " 1 shard, 4-deep rings");
  }

  // One shard through a table that evicts: with a single shard the fold
  // stays exact under eviction, because the one engine sees the scalar
  // stream in order (this stream evicts 247 times in a 64-slot table).
  const std::vector<Arrival> flood =
      from_monitor(monitor::scenario_arrivals("flood-flows", 31, small_traffic()));
  ParallelPipelineConfig cfg = base_config(1, 43, Backpressure::kSpin);
  cfg.monitor_config.table.slots = 64;
  const ScalarFold want = scalar_fold(flood, cfg.monitor_config);
  ASSERT_GT(want.evictions, 0u);
  expect_folds_equal(flood, cfg, want, "flood-flows, 64-slot table");
}

TEST(ParallelIngest, MisalignedCapacitiesAgree) {
  // Different (misaligned) batch capacities change every sub-batch
  // boundary; the folded bytes must not move.
  const std::vector<Arrival> arrivals =
      from_monitor(monitor::scenario_arrivals("evade-window", 13, small_traffic()));
  std::string want;
  for (const std::size_t capacity : {std::size_t{7}, std::size_t{43}, std::size_t{64},
                                     std::size_t{1024}}) {
    ParallelIngestPipeline pipeline{base_config(4, capacity, Backpressure::kSpin)};
    pipeline.run(arrivals);
    pipeline.flush();
    const std::string got = pipeline.sequences_json().dump();
    if (want.empty()) {
      want = got;
    } else {
      EXPECT_EQ(got, want) << "capacity " << capacity;
    }
  }
}

TEST(ParallelIngest, ThreadedStreamOf200kArrivalsThroughFourShards) {
  // The TSAN proof for the sharded path: 200k arrivals over 64 flows
  // through 4 consumer threads behind small rings (constant wrap-around
  // and backpressure), bit-exact with the scalar recurrence.
  constexpr std::size_t kFlows = 64;
  constexpr std::size_t kCount = 200'000;
  std::vector<Arrival> arrivals;
  arrivals.reserve(kCount);
  std::vector<std::uint32_t> next(kFlows, 0);
  util::Rng rng{99};
  for (std::size_t i = 0; i < kCount; ++i) {
    const std::size_t f = static_cast<std::size_t>(rng.below(kFlows));
    arrivals.push_back(Arrival{f + 1, next[f]++, static_cast<std::int64_t>(i)});
  }

  SequenceEngine scalar;
  for (const Arrival& a : arrivals) scalar.observe(a.flow, a.send_index);
  scalar.flush();

  ParallelPipelineConfig cfg = base_config(4, 64, Backpressure::kSpin);
  cfg.ring_batches = 4;  // tiny rings: the fences earn their keep
  ParallelIngestPipeline pipeline{cfg};
  const ParallelPipelineStats& stats = pipeline.run(arrivals);
  pipeline.flush();

  EXPECT_EQ(stats.arrivals_produced, kCount);
  EXPECT_EQ(stats.arrivals_consumed, kCount);
  EXPECT_EQ(stats.arrivals_dropped, 0u);
  std::uint64_t engine_total = 0;
  for (std::size_t s = 0; s < 4; ++s) engine_total += pipeline.shard_sequences(s).arrivals();
  EXPECT_EQ(engine_total, kCount);
  EXPECT_EQ(pipeline.sequences_json().dump(), scalar.to_json().dump());
}

// ------------------------------------------------- saturation + JSONL

TEST(ParallelIngest, DropPolicyShedsPerShardAndSurfacesCountersInJsonl) {
  // Deterministic saturation: 1-arrival sub-batches, 1-slot rings, and
  // consumers stalling 1ms per batch while the producer streams 1000
  // arrivals in microseconds — shard rings MUST overflow. Conservation
  // must hold across all shards and every counter must land in the
  // {"type":"ingest"} record.
  std::vector<Arrival> arrivals;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    arrivals.push_back(Arrival{(i % 8) + 1, i / 8, 0});
  }
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    ParallelPipelineConfig cfg = base_config(shards, 1, Backpressure::kDrop);
    cfg.ring_batches = 1;
    cfg.consumer_stall = util::Duration::millis(1);
    ParallelIngestPipeline pipeline{cfg};
    const ParallelPipelineStats& stats = pipeline.run(arrivals);
    pipeline.flush();

    EXPECT_EQ(stats.arrivals_produced, 1000u) << shards;
    EXPECT_GT(stats.arrivals_dropped, 0u) << shards;
    EXPECT_EQ(stats.arrivals_consumed + stats.arrivals_dropped, stats.arrivals_produced);
    std::uint64_t consumed = 0, dropped = 0, engine_arrivals = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const ShardStats& shard = stats.shards[s];
      EXPECT_EQ(shard.arrivals_consumed + shard.arrivals_dropped, shard.arrivals_dispatched);
      EXPECT_EQ(shard.batches_consumed + shard.batches_dropped, shard.batches_dispatched);
      EXPECT_EQ(shard.ring.pushed + shard.ring.dropped, shard.batches_dispatched);
      EXPECT_EQ(pipeline.shard_sequences(s).arrivals(), shard.arrivals_consumed);
      consumed += shard.arrivals_consumed;
      dropped += shard.arrivals_dropped;
      engine_arrivals += pipeline.shard_sequences(s).arrivals();
    }
    EXPECT_EQ(consumed, stats.arrivals_consumed);
    EXPECT_EQ(dropped, stats.arrivals_dropped);
    EXPECT_EQ(engine_arrivals, stats.arrivals_consumed);
    EXPECT_EQ(stats.batches_consumed + stats.batches_dropped, stats.dispatcher.sub_batches);

    const report::Json j = pipeline.to_json();
    ASSERT_NE(j.find("per_shard"), nullptr);
    ASSERT_NE(j.find("dispatcher"), nullptr);
    EXPECT_EQ(j.find("shards")->dump(), std::to_string(shards));
    std::ostringstream jsonl;
    report::JsonlWriter writer{jsonl};
    pipeline.emit_jsonl(writer);
    const std::string line = jsonl.str();
    EXPECT_NE(line.find("\"type\":\"ingest\""), std::string::npos);
    EXPECT_NE(line.find("\"per_shard\":["), std::string::npos);
    EXPECT_NE(line.find("\"ring\":{"), std::string::npos);
    EXPECT_NE(line.find("\"fill_hist\":["), std::string::npos);
    EXPECT_NE(line.find("\"imbalance_ratio\":"), std::string::npos);
    EXPECT_NE(line.find("\"arrivals_dropped\":" + std::to_string(stats.arrivals_dropped)),
              std::string::npos);
  }
}

TEST(ParallelIngest, SpinPolicyLosesNothingUnderTheSameSaturation) {
  std::vector<Arrival> arrivals;
  for (std::uint32_t i = 0; i < 64; ++i) arrivals.push_back(Arrival{(i % 4) + 1, i / 4, 0});
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    ParallelPipelineConfig cfg = base_config(shards, 1, Backpressure::kSpin);
    cfg.ring_batches = 1;
    cfg.consumer_stall = util::Duration::micros(200);
    ParallelIngestPipeline pipeline{cfg};
    const ParallelPipelineStats& stats = pipeline.run(arrivals);
    EXPECT_EQ(stats.arrivals_produced, 64u) << shards;
    EXPECT_EQ(stats.arrivals_consumed, 64u) << shards;
    EXPECT_EQ(stats.arrivals_dropped, 0u) << shards;
    EXPECT_GT(stats.spin_waits, 0u) << shards;  // the producer did wait
    std::uint64_t engine_arrivals = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      engine_arrivals += pipeline.shard_sequences(s).arrivals();
    }
    EXPECT_EQ(engine_arrivals, 64u) << shards;
  }
}

// ------------------------------------------------------ failing source

TEST(ParallelIngest, ThrowingSourceReachesTheCallerAfterTheConsumersJoin) {
  // A source that fails mid-stream (a replay rejecting a malformed
  // capture, say) throws on the producer thread while the consumer
  // threads run. run() must join them and hand the exception to its
  // caller; unwinding past joinable threads would end the process.
  std::size_t calls = 0;
  const ParallelIngestPipeline::Source source = [&calls](Arrival* out, std::size_t max) {
    if (++calls == 3) throw std::runtime_error{"malformed capture"};
    for (std::size_t i = 0; i < max; ++i) {
      out[i] = Arrival{i % 5, static_cast<std::uint32_t>(calls * max + i), 0};
    }
    return max;
  };
  {
    ParallelIngestPipeline pipeline{base_config(2, 16, Backpressure::kSpin)};
    try {
      pipeline.run(source);
      ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "malformed capture");
    }
    EXPECT_EQ(calls, 3u);
  }  // the pipeline is destroyed after the failed run
}

TEST(ParallelIngest, ConsumerFailureReachesTheCallerAfterTheConsumersJoin) {
  // The suite factory runs on the consumer threads, once per new flow; a
  // throw there (a failed allocation, say) must reach run()'s caller, not
  // end the process. Two-deep rings keep the producer waiting on full
  // rings, so a failed shard that stopped draining would hang a kSpin run.
  std::vector<Arrival> arrivals;
  for (std::uint32_t i = 0; i < 4096; ++i) arrivals.push_back(Arrival{i % 64, i / 64, 0});
  for (const Backpressure policy : {Backpressure::kSpin, Backpressure::kDrop}) {
    std::atomic<int> calls{0};
    ParallelPipelineConfig cfg = base_config(2, 4, policy);
    cfg.ring_batches = 2;
    cfg.suite_factory = [&calls] {
      if (++calls == 6) throw std::runtime_error{"suite allocation failed"};
      return SequenceEngine::default_suite();
    };
    ParallelIngestPipeline pipeline{cfg};
    try {
      pipeline.run(arrivals);
      ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "suite allocation failed");
    }
    EXPECT_GE(calls.load(), 6);
  }
}

}  // namespace
}  // namespace reorder::ingest
