// The fault-tolerant survey runtime, pinned end to end:
//
//   * FaultInjector decisions are a pure function of (seed, site, hit) —
//     replaying a seed replays the exact failure sequence;
//   * every library metric's snapshot round-trips to_json -> from_json ->
//     merge bit-exactly (the contract checkpoint restore stands on);
//   * kill-and-resume is byte-identical: interrupt a survey after ANY k
//     completed targets, resume from the checkpoint, and the canonical
//     JSONL and metric snapshots equal an uninterrupted run's — torn or
//     misfiled checkpoint records are detected and their targets re-run;
//   * deterministic failures are not retried, and an injected target
//     timeout is recorded identically for any worker count;
//   * the crash-safe JSONL writer publishes artifacts atomically and the
//     lenient reader recovers the well-formed prefix of a torn file;
//   * merge_fleet_streams folds two runs' artifacts into the byte-exact
//     stream one combined run would have emitted (reorder-merge's core).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "metrics/restore.hpp"
#include "survey_fixture.hpp"
#include "util/fault_injector.hpp"

namespace reorder::core {
namespace {

using namespace survey_fixture;
using service::SurveyService;
using util::Duration;
using util::FaultInjector;
using util::InjectedFault;

std::string metrics_jsonl(const metrics::MetricEngine& engine) {
  std::ostringstream text;
  report::JsonlWriter writer{text};
  engine.emit_jsonl(writer);
  return text.str();
}

// ------------------------------------------------------- fault injector

TEST(FaultInjector, FiringSequenceIsAPureFunctionOfSeedSiteAndHit) {
  const auto drive = [](FaultInjector& f) {
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(f.should_fire("shard/3/run", FaultInjector::Mode::kThrow));
      fired.push_back(f.should_fire("target/h/test/syn", FaultInjector::Mode::kTargetTimeout));
    }
    return fired;
  };

  FaultInjector a{42};
  a.arm({"shard/3/run", FaultInjector::Mode::kThrow, 0.25, 0, true});
  a.arm({"target/h/test/syn", FaultInjector::Mode::kTargetTimeout, 0.25, 0, true});
  FaultInjector b{42};
  b.arm({"shard/3/run", FaultInjector::Mode::kThrow, 0.25, 0, true});
  b.arm({"target/h/test/syn", FaultInjector::Mode::kTargetTimeout, 0.25, 0, true});

  const auto seq_a = drive(a);
  EXPECT_EQ(seq_a, drive(b)) << "same seed must replay the same firing sequence";
  EXPECT_GT(a.fired("shard/3/run"), 0u);
  EXPECT_LT(a.fired("shard/3/run"), 64u);  // p=0.25 must not fire every hit

  // A different seed draws a different sequence (overwhelmingly likely
  // over 128 Bernoulli(0.25) decisions).
  FaultInjector c{43};
  c.arm({"shard/3/run", FaultInjector::Mode::kThrow, 0.25, 0, true});
  c.arm({"target/h/test/syn", FaultInjector::Mode::kTargetTimeout, 0.25, 0, true});
  EXPECT_NE(seq_a, drive(c));

  // reset() replays from hit zero: one injector drives run-after-run
  // comparisons.
  const auto firings_before = a.firings();
  a.reset();
  EXPECT_EQ(drive(a), seq_a);
  ASSERT_EQ(a.firings().size(), firings_before.size());
}

TEST(FaultInjector, PlansMatchByModeExactSiteOrPrefixAndHonorMaxFires) {
  FaultInjector f{7};
  f.arm({"shard/", FaultInjector::Mode::kShardAbort, 1.0, 2, true});

  // Mode must match: a kThrow probe at an armed kShardAbort site is inert.
  EXPECT_FALSE(f.should_fire("shard/0/run", FaultInjector::Mode::kThrow));
  // Prefix plan arms every shard site; max_fires=2 stops it after two.
  EXPECT_TRUE(f.should_fire("shard/0/abort", FaultInjector::Mode::kShardAbort));
  EXPECT_TRUE(f.should_fire("shard/1/abort", FaultInjector::Mode::kShardAbort));
  EXPECT_FALSE(f.should_fire("shard/2/abort", FaultInjector::Mode::kShardAbort));
  // Non-matching site is never armed.
  EXPECT_FALSE(f.should_fire("jsonl/write", FaultInjector::Mode::kSinkWriteFailure));

  // maybe_throw carries the plan's transient class on the raised fault.
  FaultInjector g{7};
  g.arm({"jsonl/write", FaultInjector::Mode::kSinkWriteFailure, 1.0, 0, false});
  try {
    g.maybe_throw("jsonl/write", FaultInjector::Mode::kSinkWriteFailure);
    FAIL() << "armed p=1.0 site must throw";
  } catch (const InjectedFault& fault) {
    EXPECT_EQ(fault.site(), "jsonl/write");
    EXPECT_FALSE(fault.transient());
  }
}

// ------------------------------------- metric snapshot restore contract

TEST(MetricRestore, EveryLibraryMetricRoundTripsBitExactly) {
  // Exercise every library metric over real survey traffic, snapshot the
  // engine's records, restore them into a fresh engine, and demand the
  // re-rendering is byte-identical — the exact path checkpoint restore
  // and reorder-merge ingestion take.
  service::SurveyServiceConfig cfg = service_config(2);
  cfg.engine.suite_factory = [](std::string_view target, std::string_view test) {
    metrics::MetricSuite suite = metrics::default_suite(target, test);
    suite.add(metrics::make_metric("sequence_extent"));
    suite.add(metrics::make_metric("n_reordering"));
    suite.add(metrics::make_metric("reorder_density"));
    suite.add(metrics::make_metric("buffer_density"));
    suite.add(metrics::make_metric("latency_histogram"));
    return suite;
  };
  SurveyService service{cfg};
  service.admit(nine_targets());
  service.drain();
  const std::string original = metrics_jsonl(service.metrics());
  ASSERT_FALSE(original.empty());

  metrics::MetricEngine restored;
  for (const report::Json& record : report::read_jsonl_text(original)) {
    restored.restore_record(record);
  }
  EXPECT_EQ(metrics_jsonl(restored), original);
}

TEST(MetricRestore, RestoredSnapshotsMergeBitExactlyWithLiveOnes) {
  // The property resume depends on: restoring HALF the fleet's metrics
  // from serialized snapshots and merging them with the other half run
  // live must equal the all-live merge bit-for-bit.
  const std::vector<SurveyTargetConfig> fleet = nine_targets();
  SurveyService live{service_config(2)};
  SurveyService serialized{service_config(2)};
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    (i < 5 ? live : serialized).admit(fleet[i], i);
  }
  live.drain();
  serialized.drain();

  metrics::MetricEngine merged;
  merged.merge(live.metrics());
  metrics::MetricEngine restored;
  for (const report::Json& record :
       report::read_jsonl_text(metrics_jsonl(serialized.metrics()))) {
    restored.restore_record(record);
  }
  merged.merge(restored);
  EXPECT_EQ(snapshot_dump(merged), reference().snapshots);
}

TEST(MetricRestore, UnknownMetricNameThrows) {
  EXPECT_THROW(metrics::make_metric("no-such-metric"), std::invalid_argument);
}

TEST(MetricRestore, OutOfRangeSketchBucketIndicesThrow) {
  // A sketch bucket index past the largest value's bucket (UINT64_MAX
  // falls in bucket 1919) is corrupt input. The first index below used to
  // wrap resize() to zero and write out of bounds; the second asked for
  // terabytes.
  const auto with_buckets = [](std::string text, const std::string& buckets) {
    const std::string empty = "\"buckets\":[]";
    const std::size_t at = text.find(empty);
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(text.find(empty, at + 1), std::string::npos) << "one sketch in the record";
    text.replace(at, empty.size(), "\"buckets\":" + buckets);
    return *report::Json::parse(text);
  };

  // A whole metrics record, as reorder-merge and resume restore it: its
  // late_time sketch is empty, so the record holds one bucket list.
  metrics::MetricEngine engine;
  metrics::EngineSink sink{engine};
  TestRunResult result;
  result.aggregate();
  publish_result(sink, "host-0", "syn", util::TimePoint::epoch(), result);
  const std::string record = engine.records().front().dump();
  for (const std::string buckets : {"[[\"18446744073709551615\",1]]", "[[1000000000000,1]]"}) {
    metrics::MetricEngine restored;
    EXPECT_THROW(restored.restore_record(with_buckets(record, buckets)), std::runtime_error)
        << buckets;
  }
  metrics::MetricEngine restored;
  EXPECT_NO_THROW(restored.restore_record(with_buckets(record, "[[1919,1]]")));

  // SequenceExtentMetric's extent_tail restores through the same code.
  const std::string extent = metrics::make_metric("sequence_extent")->to_json().dump();
  for (const std::string buckets : {"[[\"18446744073709551615\",1]]", "[[1000000000000,1]]"}) {
    EXPECT_THROW(metrics::make_metric("sequence_extent")->from_json(with_buckets(extent, buckets)),
                 std::runtime_error)
        << buckets;
  }
}

// ------------------------------------------------------ checkpoint codec

TEST(Checkpoint, MeasurementCodecIsFullFidelity) {
  SurveyService service{service_config(1)};
  service.admit(nine_targets());
  service.drain();
  ASSERT_FALSE(service.measurements().empty());
  for (const Measurement& m : service.measurements()) {
    const Measurement back = measurement_from_json(report::Json::rendered(
        [&](report::JsonWriter& w) { write_measurement_json(w, m); }));
    EXPECT_EQ(back.target, m.target);
    EXPECT_EQ(back.test, m.test);
    EXPECT_EQ(back.at.ns(), m.at.ns());
    EXPECT_EQ(back.result.admissible, m.result.admissible);
    EXPECT_EQ(back.result.note, m.result.note);
    EXPECT_EQ(back.result.forward.reordered, m.result.forward.reordered);
    ASSERT_EQ(back.result.samples.size(), m.result.samples.size());
    for (std::size_t i = 0; i < m.result.samples.size(); ++i) {
      const SampleResult& a = back.result.samples[i];
      const SampleResult& b = m.result.samples[i];
      EXPECT_EQ(a.forward, b.forward);
      EXPECT_EQ(a.reverse, b.reverse);
      EXPECT_EQ(a.started.ns(), b.started.ns());
      EXPECT_EQ(a.completed.ns(), b.completed.ns());
      EXPECT_EQ(a.gap.ns(), b.gap.ns());
      // The uids the emission schema drops are exactly what the codec
      // must keep (they tie samples to trace captures).
      EXPECT_EQ(a.fwd_uid_first, b.fwd_uid_first);
      EXPECT_EQ(a.fwd_uid_second, b.fwd_uid_second);
      EXPECT_EQ(a.rev_uid_first, b.rev_uid_first);
      EXPECT_EQ(a.rev_uid_second, b.rev_uid_second);
    }
  }
}

TEST(Checkpoint, SerializeLoadRoundTripsAndChecksumGuardsEveryRecord) {
  const SurveyCheckpoint& full = full_checkpoint();
  SurveyCheckpoint cp;
  cp.set_header({0, 9, kRounds, kSeed});
  cp.record_shard(full.restore_shard(0), 2);
  cp.record_shard(full.restore_shard(2), 1);

  const std::string path = "/tmp/reorder_ckpt_roundtrip.jsonl";
  cp.save(path);
  const std::string saved = file_bytes(path);
  const SurveyCheckpoint loaded = SurveyCheckpoint::load(path);
  loaded.save(path);
  const std::string resaved = file_bytes(path);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.header().has_value());
  EXPECT_EQ(loaded.header()->shards, 0u);
  EXPECT_EQ(loaded.header()->targets, 9u);
  EXPECT_EQ(loaded.header()->seed, kSeed);
  EXPECT_EQ(loaded.completed_shards(), (std::vector<std::size_t>{0, 2}));
  EXPECT_FALSE(loaded.has_shard(1));
  EXPECT_EQ(loaded.attempts(0), 2);
  EXPECT_EQ(loaded.torn_records(), 0u);
  // The reload serializes back to the identical bytes, and re-saves to
  // the file it was loaded from.
  EXPECT_EQ(loaded.serialize(), cp.serialize());
  EXPECT_EQ(resaved, saved);

  // Flip one byte inside a record's body: its checksum must disown it
  // (the target re-runs) while the intact record survives.
  std::string text = cp.serialize();
  const std::size_t flip = text.find("\"log\"");
  ASSERT_NE(flip, std::string::npos);
  text[flip + 1] = 'x';
  {
    std::ofstream out{path, std::ios::trunc};
    out << text;
  }
  const SurveyCheckpoint corrupted = SurveyCheckpoint::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(corrupted.completed_count(), 1u);
  EXPECT_EQ(corrupted.torn_records(), 1u);
}

TEST(Checkpoint, MissingFileLoadsEmpty) {
  const SurveyCheckpoint cp = SurveyCheckpoint::load("/tmp/reorder_ckpt_never_written.jsonl");
  EXPECT_FALSE(cp.header().has_value());
  EXPECT_EQ(cp.completed_count(), 0u);
  EXPECT_EQ(cp.torn_records(), 0u);
}

TEST(Checkpoint, AnUnreadableHeaderRejectsTheFile) {
  // A corrupt record costs only its target, but the header names the plan
  // every record belongs to: without it the file cannot be trusted.
  SurveyCheckpoint cp;
  cp.set_header({0, 9, kRounds, kSeed});
  cp.record_shard(full_checkpoint().restore_shard(1));
  const std::string text = cp.serialize();
  const std::string seed = ",\"seed\":" + std::to_string(kSeed);
  const std::string rounds = ",\"rounds\":" + std::to_string(kRounds);
  // A missing seed, a seed past u64, and a fractional round count or one
  // past int (2^32 + 1), which must be refused rather than truncated or
  // wrapped into another plan.
  const std::vector<std::pair<std::string, std::string>> edits{
      {seed, ""},
      {seed, ",\"seed\":1e20"},
      {rounds, ",\"rounds\":1.9"},
      {rounds, ",\"rounds\":4294967297"}};
  const std::string path = testing::TempDir() + "reorder_ckpt_headless.jsonl";
  for (const auto& [field, header] : edits) {
    const std::size_t at = text.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    {
      std::ofstream out{path, std::ios::trunc};
      out << std::string{text}.replace(at, field.size(), header);
    }
    try {
      SurveyCheckpoint::load(path);
      ADD_FAILURE() << "load() accepted the header with '" << header << "' for '" << field << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(path), std::string::npos) << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RecordFiledUnderAnotherIndexIsTorn) {
  // The checksum covers only a record's body, not the line's `shard`
  // key. A line filing target 3's body under index 0 must be dropped, or
  // index 0 would adopt target 3's results.
  SurveyCheckpoint cp;
  cp.set_header({0, 9, kRounds, kSeed});
  cp.record_shard(full_checkpoint().restore_shard(1));
  cp.record_shard(full_checkpoint().restore_shard(3));
  std::string text = cp.serialize();
  const std::string key = "\"type\":\"shard_done\",\"shard\":3,";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, key.size(), "\"type\":\"shard_done\",\"shard\":0,");

  const std::string path = testing::TempDir() + "reorder_ckpt_misfiled.jsonl";
  {
    std::ofstream out{path, std::ios::trunc};
    out << text;
  }
  const SurveyCheckpoint loaded = SurveyCheckpoint::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.completed_shards(), (std::vector<std::size_t>{1}));
  EXPECT_EQ(loaded.torn_records(), 1u);
}

// --------------------------------------------------- kill-and-resume

TEST(KillAndResume, ResumeAfterAnyPrefixIsByteIdentical) {
  const SurveyCheckpoint& full = full_checkpoint();
  ASSERT_EQ(full.completed_count(), 9u);
  const std::string path = testing::TempDir() + "reorder_ckpt_resume.jsonl";
  for (std::size_t k = 0; k <= 9; ++k) {
    // "Kill" after exactly k completed targets: a checkpoint holding the
    // first k per-target records (a world is pure, so these are the
    // bytes a killed run's checkpoint would hold). Resume from there.
    SurveyCheckpoint cp;
    cp.set_header(*full.header());
    for (std::size_t i = 0; i < k; ++i) cp.record_shard(full.restore_shard(i), full.attempts(i));
    cp.save(path);

    SurveyService resumed{service_config(2)};
    resumed.restore(SurveyCheckpoint::load(path));
    resumed.admit(nine_targets());
    resumed.drain();
    EXPECT_FALSE(resumed.degraded());
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_EQ(resumed.attempts(i), i < k ? 0 : 1) << "k=" << k << " target " << i;
    }
    EXPECT_EQ(canonical_jsonl(resumed), reference().jsonl) << "k=" << k;
    EXPECT_EQ(snapshot_dump(resumed.metrics()), reference().snapshots) << "k=" << k;
  }
  std::remove(path.c_str());
}

TEST(KillAndResume, TornCheckpointRecordsAreDetectedAndTheirTargetsReRun) {
  // A checkpoint holding targets {0, 1}, with 1's record damaged: torn
  // mid-write (the file ends mid-line, as a killed writer leaves it), or
  // replaced by a line nested a million levels deep, which must cost only
  // that record, not crash the parser.
  const SurveyCheckpoint& full = full_checkpoint();
  SurveyCheckpoint cp;
  cp.set_header(*full.header());
  cp.record_shard(full.restore_shard(0));
  cp.record_shard(full.restore_shard(1));
  const std::string text = cp.serialize();
  const std::size_t first_nl = text.find('\n');
  const std::size_t second_nl = text.find('\n', first_nl + 1);
  ASSERT_NE(second_nl, std::string::npos);
  const std::size_t last_begin = second_nl + 1;  // target 1's record starts here
  ASSERT_LT(last_begin, text.size());
  const std::vector<std::string> damaged = {
      text.substr(0, last_begin + (text.size() - last_begin) / 2),  // torn mid-write
      text.substr(0, last_begin) + std::string(1'000'000, '[') + "\n",
  };

  const std::string path = testing::TempDir() + "reorder_ckpt_torn.jsonl";
  for (std::size_t d = 0; d < damaged.size(); ++d) {
    {
      std::ofstream out{path, std::ios::trunc};
      out << damaged[d];
    }
    const SurveyCheckpoint loaded = SurveyCheckpoint::load(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.completed_count(), 1u) << "damage " << d;
    EXPECT_GE(loaded.torn_records(), 1u) << "damage " << d;

    SurveyService resumed{service_config(2)};
    resumed.restore(loaded);
    resumed.admit(nine_targets());
    resumed.drain();
    EXPECT_EQ(resumed.attempts(0), 0) << "damage " << d;
    EXPECT_EQ(resumed.attempts(1), 1) << "the damaged record's target re-ran; damage " << d;
    EXPECT_EQ(canonical_jsonl(resumed), reference().jsonl) << "damage " << d;
  }
}

// ------------------------------------------------ retry and degradation

TEST(RetryPolicy, NonTransientFaultsAreNotRetried) {
  FaultInjector faults{11};
  faults.arm({"shard/0/run", FaultInjector::Mode::kThrow, 1.0, 0, /*transient=*/false});

  service::SurveyServiceConfig cfg = service_config(2);
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 5;
  SurveyService service{cfg};
  service.admit(nine_targets());
  service.drain();

  EXPECT_TRUE(service.degraded());
  // One attempt only: a deterministic failure would fail all five.
  EXPECT_EQ(service.attempts(0), 1);
  EXPECT_EQ(faults.fired("shard/0/run"), 1u);
}

TEST(TargetTimeout, InjectedTimeoutIsDeterministicAndWorkerInvariant) {
  const auto run_with_faults = [](std::size_t workers) {
    FaultInjector faults{5};
    // host-2's syn measurements: the first probe of that site fires, so
    // exactly one measurement times out, identically for any worker count
    // (the site is identity-qualified, not schedule-qualified).
    faults.arm({"target/host-2/test/syn", FaultInjector::Mode::kTargetTimeout, 1.0, 1, true});
    service::SurveyServiceConfig cfg = service_config(workers);
    cfg.engine.faults = &faults;
    // The injected timeout runs the full measurement deadline in virtual
    // time; keep it short so the test stays fast.
    cfg.engine.measurement_deadline = Duration::seconds(30);
    SurveyService service{cfg};
    service.admit(nine_targets());
    service.drain();
    return canonical_jsonl(service);
  };

  const std::string one = run_with_faults(1);
  EXPECT_EQ(run_with_faults(2), one);
  EXPECT_EQ(run_with_faults(4), one);

  // The timed-out measurement is recorded inadmissible with the watchdog
  // note — the uncooperative-host outcome, not a crash.
  bool saw_timeout = false;
  for (const report::Json& r : report::read_jsonl_text(one)) {
    if (r.at("type").as_string() != "measurement") continue;
    if (r.at("target").as_string() != "host-2" || r.at("test").as_string() != "syn") continue;
    if (!r.at("admissible").as_bool()) {
      saw_timeout = true;
      EXPECT_EQ(r.at("note").as_string(), "measurement did not complete");
    }
  }
  EXPECT_TRUE(saw_timeout);
}

// ------------------------------------------- crash-safe JSONL artifacts

TEST(CrashSafeJsonl, SinkWriteFailureIsInjectableAndDetected) {
  FaultInjector faults{3};
  faults.arm({"jsonl/write", FaultInjector::Mode::kSinkWriteFailure, 1.0, 1, true});
  std::ostringstream out;
  report::JsonlWriter writer{out};
  writer.set_fault_injector(&faults);

  report::Json line = report::Json::object();
  line.set("type", "probe");
  EXPECT_THROW(writer.write(line), InjectedFault);
  // One fire only (max_fires=1): the stream then keeps working, and the
  // failed write left no partial line behind.
  writer.write(line);
  EXPECT_EQ(out.str(), line.dump() + "\n");
  EXPECT_EQ(writer.lines_written(), 1u);
}

TEST(CrashSafeJsonl, AtomicFilePublishesOnlyOnCommit) {
  const std::string path = "/tmp/reorder_atomic_jsonl_test.jsonl";
  std::remove(path.c_str());
  {
    // Destroyed uncommitted: no artifact, no tmp residue.
    report::AtomicJsonlFile file{path};
    report::Json line = report::Json::object();
    line.set("k", 1);
    file.writer().write(line);
    EXPECT_FALSE(std::ifstream{path}.good());
  }
  EXPECT_FALSE(std::ifstream{path}.good());
  EXPECT_FALSE(std::ifstream{path + ".tmp"}.good());

  {
    report::AtomicJsonlFile file{path};
    report::Json line = report::Json::object();
    line.set("k", 2);
    file.writer().write(line);
    EXPECT_FALSE(std::ifstream{path}.good()) << "nothing published before commit";
    file.commit();
  }
  const std::vector<report::Json> back = report::read_jsonl_file(path);
  std::remove(path.c_str());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].at("k").as_int(), 2);
}

TEST(CrashSafeJsonl, TruncatedFileRecoversItsWellFormedPrefix) {
  const std::string path = "/tmp/reorder_truncated_jsonl_test.jsonl";
  std::string text;
  for (int i = 0; i < 5; ++i) {
    report::Json line = report::Json::object();
    line.set("i", i);
    text += line.dump() + "\n";
  }
  // Tear the file mid-record 4, as a killed writer would.
  {
    std::ofstream out{path, std::ios::trunc};
    out << text.substr(0, text.size() - 6);
  }

  // The strict reader refuses the torn file outright...
  EXPECT_THROW(report::read_jsonl_file(path), std::runtime_error);
  // ...the recovery reader hands back records 0..3 and reports the tear.
  const report::RecoveredJsonl recovered = report::read_jsonl_file_prefix(path);
  std::remove(path.c_str());
  ASSERT_EQ(recovered.records.size(), 4u);
  EXPECT_EQ(recovered.dropped_lines, 1u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(recovered.records[i].at("i").as_int(), i);
}

// ------------------------------------------------- flaky-target scenario

TEST(FlakyTarget, SynDropsAndRateLimitingAreExercisedYetMeasurementsComplete) {
  ScenarioSpec spec = scenarios::flaky_target(/*seed=*/23);
  spec.tests = {TestSpec{"syn"}, TestSpec{"ping-burst"}};
  spec.rounds = 2;
  spec.run.samples = 10;

  Testbed bed{spec.testbed};
  const ScenarioResult result = run_scenario(bed, spec);

  // The host really is flaky: opening SYNs were dropped and echo replies
  // rate-limited...
  EXPECT_GT(bed.remote().counters().syn_dropped, 0u);
  EXPECT_GT(bed.remote().counters().echo_rate_limited, 0u);
  // ...yet the prober's retransmissions get measurements through: the
  // syn technique stays admissible with usable samples.
  const ReorderEstimate syn = result.aggregate("syn", /*forward=*/true);
  EXPECT_GT(syn.usable(), 0u);
}

// --------------------------------------------------- fleet-stream merge

TEST(FleetMerge, TwoRunsFoldIntoTheCombinedRunsBytes) {
  // Two survey runs over DISJOINT fleet slices, every target admitted at
  // its global index so the combined run measures the exact same worlds.
  const auto run_slice = [](std::size_t begin, std::size_t end) {
    service::SurveyServiceConfig cfg = service_config(2);
    cfg.seed = 99;
    SurveyService service{cfg};
    for (std::size_t i = begin; i < end; ++i) {
      SurveyTargetConfig target;
      target.name = "m-" + std::to_string(i);
      target.forward.swap_probability = (i % 2) * 0.13;
      target.remote.behavior.immediate_ack_on_hole_fill = true;
      target.tests = {TestSpec{"single-connection"}, TestSpec{"syn"}};
      service.admit(std::move(target), i);
    }
    service.drain();
    return canonical_jsonl(service);
  };

  const std::string east = run_slice(0, 2);
  const std::string west = run_slice(2, 4);
  const std::string combined = run_slice(0, 4);

  const std::string merged_text =
      merge_fleet_streams({report::read_jsonl_text(east), report::read_jsonl_text(west)}).text;
  EXPECT_EQ(merged_text, combined);

  // And the fold is idempotent: merging one run reproduces it.
  const std::string self_text = merge_fleet_streams({report::read_jsonl_text(east)}).text;
  EXPECT_EQ(self_text, east);
}

TEST(FleetMerge, RoundsOutsideIntAreRejected) {
  // A lifecycle record's round count past int's range is refused, never
  // wrapped: 2^32 + 1 would otherwise read as a 1-round plan.
  for (const std::string type : {"survey_begin", "survey_end"}) {
    const SurveyEvent event{1, 1, 0, util::TimePoint::epoch()};
    const auto lifecycle = [&](const char* name) {
      return report::Json::rendered(
          [&](report::JsonWriter& w) { report::write_survey_event(w, name, event); });
    };
    std::vector<report::Json> run{lifecycle("survey_begin"), lifecycle("survey_end")};
    EXPECT_NO_THROW(merge_fleet_streams({run})) << type;
    for (report::Json& record : run) {
      if (record.at("type").as_string() == type) record.set("rounds", std::int64_t{4294967297});
    }
    EXPECT_THROW(merge_fleet_streams({run}), std::runtime_error) << type;
  }
}

TEST(FleetMerge, TornInputIsRejected) {
  // A sample line whose measurement record is missing (torn artifact).
  report::Json sample = report::Json::object();
  sample.set("type", "sample");
  sample.set("target", "h");
  sample.set("test", "syn");
  sample.set("measurement", 0);
  EXPECT_THROW(merge_fleet_streams({{sample}}), std::runtime_error);
}

}  // namespace
}  // namespace reorder::core
