// Library microbenchmarks (engineering, not from the paper): codec and
// checksum throughput, event-loop scheduling, endpoint segment processing,
// the reordering stages, a full end-to-end measurement sample, and the
// survey service's canonical JSONL emission.
//
// The human table is google-benchmark's console reporter; alongside it a
// JSONL artifact (one record per benchmark run) streams through the
// report layer like every other bench binary's.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <ostream>
#include <streambuf>
#include <unordered_map>

#include "bench_common.hpp"
#include "ingest/parallel_pipeline.hpp"
#include "ingest/pipeline.hpp"
#include "core/survey_testbed.hpp"
#include "core/test_registry.hpp"
#include "core/testbed.hpp"
#include "metrics/engine.hpp"
#include "metrics/sequence_metrics.hpp"
#include "monitor/differential.hpp"
#include "monitor/engine.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/link.hpp"
#include "netsim/path.hpp"
#include "netsim/striped_link.hpp"
#include "netsim/swap_shaper.hpp"
#include "service/survey_service.hpp"
#include "stats/students_t.hpp"
#include "tcpip/tcp_endpoint.hpp"
#include "trace/analyzer.hpp"
#include "util/buffer_pool.hpp"
#include "util/checksum.hpp"
#include "util/random.hpp"

namespace {

using namespace reorder;

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(40)->Arg(576)->Arg(1500);

void BM_PacketSerialize(benchmark::State& state) {
  tcpip::Packet pkt;
  pkt.ip.src = tcpip::Ipv4Address::from_octets(10, 0, 0, 1);
  pkt.ip.dst = tcpip::Ipv4Address::from_octets(10, 0, 0, 2);
  pkt.tcp.src_port = 40000;
  pkt.tcp.dst_port = 80;
  pkt.tcp.flags = tcpip::kAck | tcpip::kPsh;
  pkt.payload.assign(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt.to_wire());
  }
}
BENCHMARK(BM_PacketSerialize)->Arg(0)->Arg(512)->Arg(1460);

void BM_PacketRoundTrip(benchmark::State& state) {
  tcpip::Packet pkt;
  pkt.ip.src = tcpip::Ipv4Address::from_octets(10, 0, 0, 1);
  pkt.ip.dst = tcpip::Ipv4Address::from_octets(10, 0, 0, 2);
  pkt.tcp.mss = 1460;
  pkt.tcp.flags = tcpip::kSyn;
  const auto wire = pkt.to_wire();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcpip::Packet::from_wire(wire));
  }
}
BENCHMARK(BM_PacketRoundTrip);

// Scheduling throughput, indexed-heap (the production scheduler) vs the
// retained std::map reference — the before/after pair for the PR's >= 3x
// acceptance criterion. The loop lives across iterations: what long surveys
// pay is the steady state, where the heap's storage is already at its
// high-water mark (and the map still allocates two nodes per event). Each
// event carries a capture the size of a typical stage callback (stage
// pointer + in-flight packet state), as every real event does.
struct EventCapture {
  std::uint64_t* sink;
  std::uint64_t state[8];  // 64 bytes of carried packet/timer state
};
void schedule_run(benchmark::State& state, sim::EventLoop::QueuePolicy policy) {
  sim::EventLoop loop{policy};
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < state.range(0); ++i) {
      EventCapture cap{&sink, {static_cast<std::uint64_t>(i)}};
      loop.schedule(util::Duration::micros(i % 97), [cap] { *cap.sink += cap.state[0]; });
    }
    loop.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_EventLoopScheduleRun(benchmark::State& state) {
  schedule_run(state, sim::EventLoop::QueuePolicy::kIndexedHeap);
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(1000)->Arg(10000);
void BM_EventLoopScheduleRunMapRef(benchmark::State& state) {
  schedule_run(state, sim::EventLoop::QueuePolicy::kReferenceMap);
}
BENCHMARK(BM_EventLoopScheduleRunMapRef)->Arg(1000)->Arg(10000);

// Steady-state cancel-heavy workload: the protocol-timer pattern (RTO /
// delayed-ACK / watchdog timers are armed constantly and almost always
// cancelled before firing). Half of all scheduled events are cancelled.
void cancel_heavy(benchmark::State& state, sim::EventLoop::QueuePolicy policy) {
  sim::EventLoop loop{policy};
  std::vector<std::uint64_t> tokens(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      tokens[i] = loop.schedule(util::Duration::micros(static_cast<std::int64_t>(i % 97)), [] {});
    }
    for (std::size_t i = 0; i < tokens.size(); i += 2) loop.cancel(tokens[i]);
    loop.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_EventLoopCancelHeavy(benchmark::State& state) {
  cancel_heavy(state, sim::EventLoop::QueuePolicy::kIndexedHeap);
}
BENCHMARK(BM_EventLoopCancelHeavy)->Arg(1000);
void BM_EventLoopCancelHeavyMapRef(benchmark::State& state) {
  cancel_heavy(state, sim::EventLoop::QueuePolicy::kReferenceMap);
}
BENCHMARK(BM_EventLoopCancelHeavyMapRef)->Arg(1000);

// One packet through a 4-stage path (link > jitter > striped link > link):
// the exact hot path a measurement sample's packets traverse, including
// four packet-carrying callbacks through the scheduler and a pooled
// payload recycled at the terminal sink.
void BM_LinkChainTransit(benchmark::State& state) {
  sim::EventLoop loop;
  sim::Path path;
  sim::LinkParams link_params;
  path.emplace<sim::LinkStage>(loop, link_params);
  path.emplace<sim::JitterStage>(loop, util::Duration::micros(0), util::Duration::micros(50),
                                 util::Rng{7});
  path.emplace<sim::StripedLink>(loop, sim::StripedLinkConfig{}, util::Rng{11});
  path.emplace<sim::LinkStage>(loop, link_params);
  std::uint64_t arrived = 0;
  path.terminate([&arrived](tcpip::Packet pkt) {
    ++arrived;
    tcpip::recycle(std::move(pkt));
  });
  const auto entry = path.entry();
  for (auto _ : state) {
    tcpip::Packet pkt;
    pkt.ip.src = tcpip::Ipv4Address::from_octets(10, 0, 0, 1);
    pkt.ip.dst = tcpip::Ipv4Address::from_octets(10, 0, 0, 2);
    pkt.tcp.src_port = 40000;
    pkt.tcp.dst_port = 80;
    pkt.payload = util::BufferPool::global().acquire(512);
    pkt.payload.assign(512, 0x2a);
    entry(std::move(pkt));
    loop.run();
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(arrived);
}
BENCHMARK(BM_LinkChainTransit);

void BM_EndpointInOrderSegments(benchmark::State& state) {
  sim::EventLoop loop;
  tcpip::TcpBehavior behavior;
  behavior.delayed_ack = tcpip::DelayedAckPolicy::kNone;
  const tcpip::ConnKey key{80, tcpip::Ipv4Address::from_octets(10, 0, 0, 1), 40000};
  tcpip::TcpEndpoint ep{loop, behavior, key, 1000,
                        [](tcpip::TcpHeader, std::vector<std::uint8_t>) {}};
  tcpip::Packet syn;
  syn.ip.src = key.remote_addr;
  syn.tcp.src_port = 40000;
  syn.tcp.dst_port = 80;
  syn.tcp.flags = tcpip::kSyn;
  syn.tcp.seq = 5000;
  ep.on_segment(syn);
  tcpip::Packet ack = syn;
  ack.tcp.flags = tcpip::kAck;
  ack.tcp.seq = 5001;
  ack.tcp.ack = 1001;
  ep.on_segment(ack);

  tcpip::Packet data = ack;
  data.tcp.flags = tcpip::kAck | tcpip::kPsh;
  data.payload.assign(512, 0x11);
  std::uint32_t seq = 5001;
  for (auto _ : state) {
    data.tcp.seq = seq;
    seq += 512;
    ep.on_segment(data);
  }
  state.SetBytesProcessed(state.iterations() * 512);
}
BENCHMARK(BM_EndpointInOrderSegments);

void BM_SwapShaperStream(benchmark::State& state) {
  sim::EventLoop loop;
  sim::SwapShaper shaper{loop, sim::SwapShaperConfig{0.1, util::Duration::millis(5)},
                         util::Rng{1}};
  std::uint64_t sink_count = 0;
  shaper.connect([&](tcpip::Packet) { ++sink_count; });
  tcpip::Packet pkt;
  for (auto _ : state) {
    shaper.accept(tcpip::Packet{pkt});
    if ((state.iterations() & 0xff) == 0) loop.run();
  }
  loop.run();
  benchmark::DoNotOptimize(sink_count);
}
BENCHMARK(BM_SwapShaperStream);

void BM_CountInversions(benchmark::State& state) {
  std::vector<std::uint32_t> arrival(static_cast<std::size_t>(state.range(0)));
  util::Rng rng{3};
  for (std::size_t i = 0; i < arrival.size(); ++i) arrival[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = arrival.size(); i > 1; --i) {
    std::swap(arrival[i - 1], arrival[rng.below(i)]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::count_inversions(arrival));
  }
}
BENCHMARK(BM_CountInversions)->Arg(16)->Arg(100);

void BM_StudentTCritical(benchmark::State& state) {
  double df = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::student_t_critical(0.999, df));
    df = df < 200.0 ? df + 1.0 : 2.0;
  }
}
BENCHMARK(BM_StudentTCritical);

// Metrics-engine hot path: folding one completed measurement (and its
// samples) into a (target, test) suite — what every measurement a
// million-path survey completes pays.
void BM_MetricEngineObserve(benchmark::State& state) {
  util::Rng rng{17};
  core::TestRunResult result;
  result.test_name = "bench";
  for (int i = 0; i < state.range(0); ++i) {
    core::SampleResult s;
    s.forward = rng.bernoulli(0.2) ? core::Ordering::kReordered : core::Ordering::kInOrder;
    s.reverse = core::Ordering::kInOrder;
    s.started = util::TimePoint::from_ns(i * 1000);
    s.completed = util::TimePoint::from_ns(i * 1000 + 800);
    s.gap = util::Duration::micros(i % 8);
    result.samples.push_back(s);
  }
  result.aggregate();

  metrics::MetricEngine engine;
  std::size_t index = 0;
  for (auto _ : state) {
    engine.observe_measurement(core::MeasurementEvent{"host", "test", index++,
                                                      util::TimePoint::epoch(), result});
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MetricEngineObserve)->Arg(15)->Arg(100);

// Cross-shard fold: merging two populated per-shard engines (3 targets x
// 2 tests, 64 measurements each) into a fresh survey-wide engine.
void BM_MetricEngineMerge(benchmark::State& state) {
  util::Rng rng{23};
  const auto build_shard = [&rng] {
    metrics::MetricEngine shard;
    for (int t = 0; t < 3; ++t) {
      const std::string target = "host-" + std::to_string(t);
      for (const char* test : {"syn", "single-connection"}) {
        for (std::size_t m = 0; m < 64; ++m) {
          core::TestRunResult result;
          result.test_name = test;
          for (int i = 0; i < 15; ++i) {
            core::SampleResult s;
            s.forward =
                rng.bernoulli(0.2) ? core::Ordering::kReordered : core::Ordering::kInOrder;
            s.completed = util::TimePoint::from_ns(800);
            s.gap = util::Duration::micros(i % 8);
            result.samples.push_back(s);
          }
          result.aggregate();
          shard.observe_measurement(
              core::MeasurementEvent{target, test, m, util::TimePoint::epoch(), result});
        }
      }
    }
    return shard;
  };
  const metrics::MetricEngine shard_a = build_shard();
  const metrics::MetricEngine shard_b = build_shard();
  for (auto _ : state) {
    metrics::MetricEngine merged;
    merged.merge(shard_a);
    merged.merge(shard_b);
    benchmark::DoNotOptimize(merged.key_count());
  }
  state.SetItemsProcessed(state.iterations() * 2 * 6);  // suites folded per iteration
}
BENCHMARK(BM_MetricEngineMerge);

void BM_FullMeasurementSample(benchmark::State& state) {
  // One complete single-connection measurement (connect + N samples +
  // close) per iteration batch; reports time per sample.
  for (auto _ : state) {
    core::TestbedConfig cfg;
    cfg.seed = 42;
    cfg.forward.swap_probability = 0.1;
    core::Testbed bed{cfg};
    auto test = core::make_registered_test(bed.probe(), bed.remote_addr(),
                                           core::TestSpec{"single-connection"});
    core::TestRunConfig run;
    run.samples = 20;
    benchmark::DoNotOptimize(bed.run_sync(*test, run));
  }
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_FullMeasurementSample)->Unit(benchmark::kMillisecond);

// One survey_batch target, whole: perfbench's synthetic population (the
// reordering half of it: a swap shaper each way), single-connection then
// syn at 15 samples, one round — built, run and torn down as the survey
// service runs each admitted target as its own world. Items are
// measurements. The only row over the SYN test, world build and teardown.
void BM_SurveyTargetWorld(benchmark::State& state) {
  core::SurveyTargetConfig target;
  target.name = "host-0";
  target.forward.swap_probability = 0.08;
  target.reverse.swap_probability = 0.03;
  target.remote.behavior.immediate_ack_on_hole_fill = true;
  target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
  core::pin_global_identity(target, 0, 1);
  core::TestRunConfig run;
  run.samples = 15;
  std::size_t measurements = 0;
  for (auto _ : state) {
    core::SurveyTestbedConfig world;
    world.seed = 1;
    world.targets.push_back(target);
    core::SurveyTestbed bed{std::move(world)};
    core::SurveyEngine engine{bed.loop()};
    bed.populate(engine);
    measurements += engine.run(run, /*rounds=*/1, util::Duration::seconds(1)).size();
  }
  benchmark::DoNotOptimize(measurements);
  state.SetItemsProcessed(static_cast<std::int64_t>(measurements));
}
BENCHMARK(BM_SurveyTargetWorld);

// Parallel fleet scaling: the survey service's admit-to-drain cycle over
// a fixed fleet on {1, 2, 4} work-stealing workers, one world per target,
// checkpoint off. The fleet is identical on every row (and, per the
// determinism guarantee, so are the results), so the ratio between rows
// is the service's parallel speedup, worker start and join included —
// the number the CI scaling gate tracks. The fleet is sized so that its
// targets' work, not starting and joining the workers, sets that ratio.
void BM_ServiceAdmitDrain(benchmark::State& state) {
  std::vector<core::SurveyTargetConfig> fleet;
  for (std::int64_t i = 0; i < state.range(1); ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = (i % 4) * 0.05;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    fleet.push_back(std::move(target));
  }
  std::size_t measurements = 0;
  for (auto _ : state) {
    service::SurveyServiceConfig cfg;
    cfg.seed = 11;
    cfg.workers = static_cast<std::size_t>(state.range(0));
    cfg.run.samples = 10;
    cfg.rounds = 1;
    cfg.between = util::Duration::millis(200);
    service::SurveyService service{cfg};
    service.admit(fleet);
    service.drain();
    measurements = service.snapshot().measurements;
    benchmark::DoNotOptimize(measurements);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(measurements));
}
// UseRealTime: the work happens on pool workers, so the main thread's
// CPU clock would show nothing — wall time is the quantity that scales.
BENCHMARK(BM_ServiceAdmitDrain)
    ->ArgNames({"workers", "targets"})
    ->Args({1, 32})
    ->Args({2, 32})
    ->Args({4, 32})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The live view's cost: snapshot() reads the counters, the running totals
// and the merged engine's key count in one short admission-lock hold, so
// it does not grow with the fleet. Priced on a quiescent populated
// service; mid-run it additionally contends with completing workers for
// that lock.
void BM_LiveSnapshot(benchmark::State& state) {
  service::SurveyServiceConfig cfg;
  cfg.seed = 11;
  cfg.workers = 4;
  cfg.run.samples = 10;
  cfg.rounds = 1;
  cfg.between = util::Duration::millis(200);
  service::SurveyService service{cfg};
  std::vector<core::SurveyTargetConfig> fleet;
  for (int i = 0; i < 8; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    target.forward.swap_probability = (i % 4) * 0.05;
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    fleet.push_back(std::move(target));
  }
  service.admit(std::move(fleet));
  service.drain();
  for (auto _ : state) {
    const service::SurveyService::Snapshot snap = service.snapshot();
    benchmark::DoNotOptimize(snap.measurements);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LiveSnapshot);

/// A stream buffer that discards what it is given, counting the bytes.
class NullBuf final : public std::streambuf {
 public:
  std::size_t bytes{0};

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::size_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    ++bytes;
    return traits_type::not_eof(c);
  }
};

// Canonical emission alone: a retained 64-target service over perfbench's
// synthetic survey population (half the paths reorder; single-connection
// and syn, 15 samples, one round) runs once and is stopped, so every
// emit_jsonl() renders inline on this thread, into a stream that discards
// the bytes. Items are the lines written: the sample, measurement,
// lifecycle and metrics records survey_batch emits.
void BM_EmitJsonl(benchmark::State& state) {
  service::SurveyServiceConfig cfg;
  cfg.seed = 1;
  cfg.workers = 1;
  cfg.run.samples = 15;
  cfg.rounds = 1;
  cfg.between = util::Duration::seconds(1);
  service::SurveyService service{cfg};
  util::Rng population{1};
  std::vector<core::SurveyTargetConfig> fleet;
  for (int i = 0; i < 64; ++i) {
    core::SurveyTargetConfig target;
    target.name = "host-" + std::to_string(i);
    if (population.bernoulli(0.5)) {
      const double fwd = std::min(0.35, population.exponential(0.08));
      target.forward.swap_probability = fwd;
      target.reverse.swap_probability = fwd * population.uniform(0.1, 0.6);
    }
    target.remote.behavior.immediate_ack_on_hole_fill = true;
    target.tests = {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}};
    fleet.push_back(std::move(target));
  }
  service.admit(std::move(fleet));
  service.drain();
  service.stop();

  NullBuf discard;
  std::ostream out{&discard};
  std::size_t lines = 0;
  for (auto _ : state) {
    report::JsonlWriter writer{out};
    service.emit_jsonl(writer);
    lines += writer.lines_written();
  }
  benchmark::DoNotOptimize(discard.bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(lines));
}
BENCHMARK(BM_EmitJsonl);

// ----------------------------------------------------------------- monitor

// The always-on hot path: MonitorEngine::ingest over `flows` concurrent
// round-robin flows against a 1024-slot table with the default 256 B
// detector suite. 64 flows is the all-hits resident case; 4096 flows
// overflows the table four-fold, so every arrival pays the LRU eviction
// and fold path too. Epochs close every 512 rounds the way real flows do.
void BM_MonitorIngest(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  monitor::MonitorConfig cfg;
  cfg.table.slots = 1024;
  monitor::MonitorEngine engine{cfg};
  std::vector<std::uint32_t> send(flows, 0);
  std::size_t f = 0;
  std::uint32_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ingest(f + 1, send[f]++));
    if (++f == flows) {
      f = 0;
      if (++round == 512) {
        round = 0;
        engine.flush();
        std::fill(send.begin(), send.end(), 0);
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MonitorIngest)->ArgName("flows")->Arg(64)->Arg(4096);

// The exact-metrics twin of BM_MonitorIngest — identical traffic into
// per-flow SequenceExtentMetric + NReorderingMetric (the state
// MetricEngine keeps per key), one arrival at a time. An in-order flow's
// open state is one run per structure, so the per-arrival cost must not
// grow with the open flow count: CI gates flows:4096 at >= 0.5x the
// flows:64 items/s.
void BM_ExactSequenceIngest(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  const auto exact_suite = [] {
    metrics::MetricSuite suite;
    suite.add(std::make_unique<metrics::SequenceExtentMetric>());
    suite.add(std::make_unique<metrics::NReorderingMetric>());
    return suite;
  };
  std::unordered_map<std::uint64_t, metrics::MetricSuite> map;
  map.reserve(flows);
  for (std::size_t i = 0; i < flows; ++i) map.emplace(i + 1, exact_suite());
  std::vector<std::uint32_t> send(flows, 0);
  std::size_t f = 0;
  std::uint32_t round = 0;
  for (auto _ : state) {
    map.find(f + 1)->second.observe_arrival(send[f]++);
    if (++f == flows) {
      f = 0;
      if (++round == 512) {
        round = 0;
        for (auto& [key, suite] : map) suite.end_sequence();
        std::fill(send.begin(), send.end(), 0);
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactSequenceIngest)->ArgName("flows")->Arg(64)->Arg(4096);

// The table alone: set-associative lookup + LRU touch. 512 distinct keys
// stay resident in the 1024 slots (pure hit path); 65536 keys thrash
// (miss + eviction path).
void BM_FlowTableLookup(benchmark::State& state) {
  monitor::FlowTableConfig cfg;
  cfg.slots = 1024;
  monitor::FlowTable table{cfg};
  util::Rng rng{5};
  std::vector<std::uint64_t> keys(8192);
  for (auto& k : keys) k = rng.below(static_cast<std::uint64_t>(state.range(0)));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(keys[i]));
    if (++i == keys.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowTableLookup)->ArgName("keys")->Arg(512)->Arg(65536);

// ------------------------------------------------------------------ ingest

namespace {

// The ingest benches' traffic: `flows` concurrent flows delivered the way
// interrupt coalescing does — per-flow in-order send indices, interleaved
// burst-by-burst in runs of `run` arrivals. This is the stream shape the
// batched path amortizes over (one map/table lookup and one virtual
// fan-in per run instead of per arrival); the scalar comparator
// BM_ExactSequenceIngest feeds the same suite one arrival at a time.
std::vector<ingest::ArrivalBatch> coalesced_batches(std::size_t flows, std::uint32_t packets,
                                                    std::size_t run, std::size_t batch_capacity) {
  std::vector<ingest::ArrivalBatch> out;
  ingest::ArrivalBatchBuilder builder{batch_capacity};
  std::vector<std::uint32_t> next(flows, 0);
  bool more = true;
  while (more) {
    more = false;
    for (std::size_t f = 0; f < flows; ++f) {
      for (std::size_t i = 0; i < run && next[f] < packets; ++i) {
        if (builder.push(f + 1, next[f]++, 0)) out.push_back(builder.take());
      }
      more = more || next[f] < packets;
    }
  }
  if (builder.size() > 0) out.push_back(builder.take());
  return out;
}

}  // namespace

// The batched observe path of the sequence-metric suite: SequenceEngine
// drains pre-rendered SoA batches of the coalesced stream (`flows` flows,
// runs of 16) through observe_arrivals() spans. The CI perf gate asserts
// flows:64 sustains >= 3x the scalar per-arrival items/s of
// BM_ExactSequenceIngest/flows:64 — the amortization the ingest subsystem
// exists to buy; the flows:4096 ratio is printed alongside.
void BM_BatchedObserve(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  const std::vector<ingest::ArrivalBatch> batches =
      coalesced_batches(flows, /*packets=*/512, /*run=*/16, /*batch_capacity=*/1024);
  ingest::SequenceEngine engine;
  std::size_t b = 0;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    engine.ingest_batch(batches[b]);
    arrivals += static_cast<std::int64_t>(batches[b].size());
    if (++b == batches.size()) {
      b = 0;
      engine.flush();  // close every flow's sequence, like the scalar twin
    }
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_BatchedObserve)->ArgName("flows")->Arg(64)->Arg(4096);

// The ingest pipeline end to end at shard counts {1,2,4}: the producer
// packs the coalesced stream by flow hash into per-shard sub-batches, and
// N consumer shards each drain a private SequenceEngine. shards:1 is one
// producer and one consumer thread. Every iteration also builds and frees
// the pipeline and its 4096 per-flow suites, so this times construction
// and teardown as well as the stream. The stream is in order, so one
// consumer keeps up with the producer and the shard counts read alike;
// BM_ParallelIngestReordered is the scaling gate.
// UseRealTime: the analytics run on the consumer threads, so wall time is
// the arrivals/s that matters.
void BM_ParallelIngest(benchmark::State& state) {
  const std::size_t shards = static_cast<std::size_t>(state.range(0));
  std::vector<ingest::Arrival> stream;
  for (const ingest::ArrivalBatch& batch :
       coalesced_batches(/*flows=*/4096, /*packets=*/512, /*run=*/16, /*batch_capacity=*/1024)) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      stream.push_back(
          ingest::Arrival{batch.flows()[i], batch.send_indices()[i], batch.timestamps_ns()[i]});
    }
  }
  ingest::ParallelPipelineConfig cfg;
  cfg.shards = shards;
  cfg.batch_capacity = 1024;
  cfg.ring_batches = 64;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    ingest::ParallelIngestPipeline pipeline{cfg};
    arrivals += static_cast<std::int64_t>(pipeline.run(stream).arrivals_consumed);
    pipeline.flush();
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ParallelIngest)->ArgName("shards")->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The ingest pipeline where its consumers set the rate: the
// interrupt-coalescing scenario's arrivals (4096 flows x 512 packets),
// batches of 1024 and rings of 64, with sequence metrics and a monitor
// that never evicts (16-way sets, at least four slots per flow). The CI
// perf gate asserts shards:2 sustains >= 1.5x the shards:1 real_time.
// shards:4 would run four consumers and the producer on the 4-vCPU
// runner, too noisy to gate.
void BM_ParallelIngestReordered(benchmark::State& state) {
  monitor::TrafficOptions traffic;
  traffic.flows = 4096;
  traffic.packets_per_flow = 512;
  const std::vector<ingest::Arrival> stream =
      ingest::from_monitor(monitor::scenario_arrivals("interrupt-coalescing", 1, traffic));
  ingest::ParallelPipelineConfig cfg;
  cfg.shards = static_cast<std::size_t>(state.range(0));
  cfg.batch_capacity = 1024;
  cfg.ring_batches = 64;
  cfg.monitor = true;
  cfg.monitor_config.table.ways = 16;
  cfg.monitor_config.table.slots = 4 * traffic.flows;
  std::int64_t arrivals = 0;
  for (auto _ : state) {
    ingest::ParallelIngestPipeline pipeline{cfg};
    arrivals += static_cast<std::int64_t>(pipeline.run(stream).arrivals_consumed);
    pipeline.flush();
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ParallelIngestReordered)->ArgName("shards")->Arg(1)->Arg(2)->UseRealTime();

// The regular console table, plus one {"type":"run",...} JSONL record
// per benchmark run into the shared BenchArtifact format.
class JsonlBenchReporter final : public benchmark::ConsoleReporter {
 public:
  explicit JsonlBenchReporter(bench::BenchArtifact& artifact) : artifact_{artifact} {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      report::Json j = report::Json::object();
      j.set("type", "run");
      j.set("name", run.benchmark_name());
      j.set("iterations", static_cast<std::int64_t>(run.iterations));
      j.set("real_time", run.GetAdjustedRealTime());
      j.set("cpu_time", run.GetAdjustedCPUTime());
      j.set("time_unit", benchmark::GetTimeUnitString(run.time_unit));
      for (const auto& [name, counter] : run.counters) {
        j.set(name, static_cast<double>(counter));
      }
      artifact_.write(j);
    }
  }

 private:
  bench::BenchArtifact& artifact_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::BenchArtifact artifact{"micro_bench", "library microbenchmarks"};
  JsonlBenchReporter reporter{artifact};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
