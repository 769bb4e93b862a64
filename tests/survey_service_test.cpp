// The survey service's headline guarantee, enforced: a fleet admitted
// continuously — in any order, any batch size, onto any number of
// work-stealing workers — produces canonical merged JSONL and metric
// snapshots BYTE-IDENTICAL to the independent single-loop reference (the
// whole fleet on one event loop, canonicalized by merge_fleet_streams).
// Plus live mid-run snapshots, checkpoint adoption across service
// generations and its identity checks, per-target retry/degraded
// accounting, and plan-error and checkpoint-write-error propagation
// through drain().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "survey_fixture.hpp"
#include "util/fault_injector.hpp"
#include "util/shard_seeder.hpp"

namespace reorder::service {
namespace {

using namespace survey_fixture;

/// A fleet spanning more emission chunks than the render window holds at
/// four workers, built from the nine-target mix and named so that names
/// sort against indices: index i is host-(n - 1 - i). Every fifth target
/// runs only the SYN test, so chunks differ in their measurement counts.
std::vector<core::SurveyTargetConfig> many_targets() {
  const std::size_t n =
      SurveyService::kEmitChunkTargets * (SurveyService::kEmitWindowPerWorker * 4 + 2);
  const std::vector<core::SurveyTargetConfig> mix = nine_targets();
  std::vector<core::SurveyTargetConfig> targets;
  for (std::size_t i = 0; i < n; ++i) {
    targets.push_back(mix[i % mix.size()]);
    targets.back().name = "host-" + std::to_string(n - 1 - i);
    if (i % 5 == 0) targets.back().tests = {core::TestSpec{"syn"}};
  }
  return targets;
}

/// Every measurement through the checkpoint's full-fidelity codec, sample
/// uids included: equal texts are equal logs, field for field.
std::string full_fidelity(const std::vector<core::Measurement>& log) {
  std::string out;
  for (const core::Measurement& m : log) {
    report::JsonWriter w{out};
    core::write_measurement_json(w, m);
    out += '\n';
  }
  return out;
}

const Reference& many_reference() {
  static const Reference ref = single_loop_reference(many_targets());
  return ref;
}

/// A stream buffer that takes `budget` bytes, then fails every write.
class FailingBuf final : public std::streambuf {
 public:
  explicit FailingBuf(std::size_t budget) : budget_{budget} {}

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    const std::streamsize taken = std::min(n, static_cast<std::streamsize>(budget_));
    budget_ -= static_cast<std::size_t>(taken);
    return taken;
  }
  int_type overflow(int_type c) override {
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    return traits_type::not_eof(c);
  }

 private:
  std::size_t budget_;
};

TEST(SurveyService, MatchesTheSingleLoopReferenceAcrossWorkerCounts) {
  const Reference& ref = reference();
  ASSERT_FALSE(ref.jsonl.empty());
  ASSERT_EQ(ref.end.measurements, 9u * 2u * kRounds);
  std::string one_worker_log;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SurveyService service{service_config(workers)};
    const std::vector<std::size_t> indices = service.admit(nine_targets());
    ASSERT_EQ(indices.size(), 9u);
    EXPECT_EQ(indices.front(), 0u);
    EXPECT_EQ(indices.back(), 8u);
    service.drain();
    EXPECT_EQ(canonical_jsonl(service), ref.jsonl) << "workers=" << workers;
    EXPECT_EQ(snapshot_dump(service.metrics()), ref.snapshots) << "workers=" << workers;
    EXPECT_EQ(service.survey_end().targets, ref.end.targets);
    EXPECT_EQ(service.survey_end().at, ref.end.at);
    EXPECT_EQ(service.survey_end().measurements, ref.end.measurements);
    EXPECT_FALSE(service.degraded());
    // Sanity anchors: the survey measured something real.
    EXPECT_GT(service.metrics().aggregate("host-2", "single-connection", true).reordered, 0u);
    EXPECT_EQ(service.metrics().admissible_measurements("host-7", "dual-connection"), 0u)
        << "random IPIDs must rule the dual test out";
    // The log itself, every field including the sample packets' uids
    // (which the JSONL schema drops), is independent of workers too: each
    // world numbers its own packets.
    const std::string log = full_fidelity(service.measurements());
    if (workers == 1) one_worker_log = log;
    EXPECT_EQ(log, one_worker_log) << "workers=" << workers;
  }
  // Names that sort against global indices: emission must walk the
  // targets by name, not by admission index.
  const Reference& renamed = renamed_reference();
  ASSERT_NE(renamed.jsonl, ref.jsonl);
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SurveyService service{service_config(workers)};
    service.admit(renamed_targets());
    service.drain();
    EXPECT_EQ(canonical_jsonl(service), renamed.jsonl) << "renamed, workers=" << workers;
    EXPECT_EQ(snapshot_dump(service.metrics()), renamed.snapshots)
        << "renamed, workers=" << workers;
  }
}

TEST(SurveyService, AdmissionOrderIsInvisibleInTheOutput) {
  // Shuffled single admissions with explicit global indices: identity is
  // the index, so the arrival order must not leak into a byte of output.
  std::mt19937 shuffle_rng{1234};
  for (int round = 0; round < 3; ++round) {
    std::vector<std::size_t> order(9);
    std::iota(order.begin(), order.end(), 0u);
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    SurveyService service{service_config(2)};
    std::vector<core::SurveyTargetConfig> fleet = nine_targets();
    for (const std::size_t index : order) {
      EXPECT_EQ(service.admit(fleet[index], index), index);
    }
    service.drain();
    EXPECT_EQ(canonical_jsonl(service), reference().jsonl);
    EXPECT_EQ(snapshot_dump(service.metrics()), reference().snapshots);
  }
}

TEST(SurveyService, BatchSizeIsInvisibleInTheOutput) {
  for (const std::size_t batch : {1u, 2u, 4u, 9u}) {
    SurveyService service{service_config(3)};
    std::vector<core::SurveyTargetConfig> fleet = nine_targets();
    std::size_t admitted = 0;
    while (admitted < fleet.size()) {
      const std::size_t n = std::min(batch, fleet.size() - admitted);
      std::vector<core::SurveyTargetConfig> chunk;
      for (std::size_t i = 0; i < n; ++i) chunk.push_back(std::move(fleet[admitted + i]));
      service.admit(std::move(chunk));
      admitted += n;
    }
    service.drain();
    EXPECT_EQ(canonical_jsonl(service), reference().jsonl) << "batch=" << batch;
    EXPECT_EQ(snapshot_dump(service.metrics()), reference().snapshots) << "batch=" << batch;
  }
}

TEST(SurveyService, DefaultIdentityIsPinnedFromTheGlobalIndex) {
  // Identity fields left unset take their values from the global index:
  // default name and address, and the ShardSeeder derivation for seeds.
  core::SurveyTargetConfig pinned;
  core::pin_global_identity(pinned, 2, kSeed);
  const util::TargetSeeds expected = util::ShardSeeder{kSeed}.target(2);
  EXPECT_EQ(pinned.name, core::default_target_name(2));
  EXPECT_EQ(pinned.address, core::default_target_address(2));
  EXPECT_EQ(pinned.host_seed, expected.host_seed);
  EXPECT_EQ(pinned.ipid_initial, expected.ipid_initial);
  EXPECT_EQ(pinned.forward_path_tag, expected.forward_tag);
  EXPECT_EQ(pinned.reverse_path_tag, expected.reverse_tag);

  // The service pins through that same function, so nameless targets
  // still byte-match the single-loop reference over the same fleet.
  const auto strip = [](std::vector<core::SurveyTargetConfig> fleet) {
    for (auto& target : fleet) target.name.clear();
    return fleet;
  };
  const Reference ref = single_loop_reference(strip(nine_targets()));
  SurveyService service{service_config(2)};
  service.admit(strip(nine_targets()));
  service.drain();
  EXPECT_EQ(canonical_jsonl(service), ref.jsonl);
  EXPECT_EQ(snapshot_dump(service.metrics()), ref.snapshots);
}

TEST(SurveyService, LiveSnapshotsMidRunDoNotPerturbTheOutput) {
  SurveyService service{service_config(2)};
  std::atomic<bool> running{true};
  std::atomic<std::size_t> snapshots_taken{0};
  // A reader hammering the live view concurrently with execution: every
  // snapshot must be one consistent cut, and no read may perturb a single
  // output byte.
  std::thread reader{[&] {
    while (running.load()) {
      const SurveyService::Snapshot snap = service.snapshot();
      EXPECT_LE(snap.completed, snap.admitted);
      // Every fixture target runs two tests for kRounds rounds, and a
      // completion's totals fold in the same hold that counts it.
      EXPECT_EQ(snap.measurements, 2u * kRounds * snap.completed);
      EXPECT_EQ(snap.metric_keys, 2u * snap.completed);
      snapshots_taken.fetch_add(1);
    }
  }};
  // Admit only once the reader is taking snapshots: a fast run could
  // otherwise drain before the reader thread is first scheduled.
  while (snapshots_taken.load() == 0) std::this_thread::yield();
  service.admit(nine_targets());
  service.drain();
  running.store(false);
  reader.join();
  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(canonical_jsonl(service), reference().jsonl);

  const SurveyService::Snapshot final_snap = service.snapshot();
  EXPECT_EQ(final_snap.admitted, 9u);
  EXPECT_EQ(final_snap.completed, 9u);
  EXPECT_EQ(final_snap.in_flight, 0u);
  EXPECT_EQ(final_snap.measurements, reference().end.measurements);
  EXPECT_EQ(final_snap.virtual_end, reference().end.at);
  EXPECT_EQ(snapshot_dump(service.metrics()), reference().snapshots);
}

TEST(SurveyService, SnapshotJsonCarriesTheServiceSchema) {
  SurveyService service{service_config(2)};
  service.admit(nine_targets());
  service.drain();
  const report::Json j = service.snapshot().to_json();
  EXPECT_EQ(j.at("type").as_string(), "service_snapshot");
  EXPECT_EQ(j.at("admitted").as_u64(), 9u);
  EXPECT_EQ(j.at("completed").as_u64(), 9u);
  EXPECT_EQ(j.at("failed").as_u64(), 0u);
  EXPECT_EQ(j.at("in_flight").as_u64(), 0u);
  EXPECT_EQ(j.at("measurements").as_u64(), reference().end.measurements);
  EXPECT_EQ(j.at("workers").as_u64(), 2u);
  EXPECT_FALSE(j.at("degraded").as_bool());
  EXPECT_TRUE(j.contains("steals"));
  EXPECT_TRUE(j.contains("steal_attempts"));
  EXPECT_TRUE(j.contains("jobs_executed"));
  EXPECT_TRUE(j.contains("metric_keys"));
  EXPECT_TRUE(j.contains("virtual_end_ns"));
  // One line of valid JSON — round-trips through the parser.
  EXPECT_TRUE(report::Json::parse(j.dump()).has_value());
}

TEST(SurveyService, CheckpointAdoptionAcrossServiceGenerations) {
  const std::string path = testing::TempDir() + "survey_service_ckpt.jsonl";
  // The renamed fleet adopts the five targets whose names sort last.
  const std::vector<std::pair<std::vector<core::SurveyTargetConfig>, const Reference*>> cases{
      {nine_targets(), &reference()}, {renamed_targets(), &renamed_reference()}};
  for (const auto& [fleet, ref] : cases) {
    const std::string label = "first target " + fleet.front().name;
    std::remove(path.c_str());

    // Generation 1 admits only part of the fleet, drains, and dies.
    {
      SurveyServiceConfig cfg = service_config(2);
      cfg.checkpoint_path = path;
      SurveyService service{cfg};
      for (std::size_t i = 0; i < 5; ++i) service.admit(fleet[i], i);
      service.drain();
      service.stop();
    }
    const core::SurveyCheckpoint recorded = core::SurveyCheckpoint::load(path);
    EXPECT_EQ(recorded.completed_count(), 5u) << label;
    ASSERT_TRUE(recorded.header().has_value());
    EXPECT_EQ(recorded.header()->shards, 0u) << "service checkpoints carry the 0 marker";
    EXPECT_EQ(recorded.header()->seed, kSeed);

    // Generation 2 restores, admits the WHOLE fleet: recorded targets are
    // adopted (attempts == 0), the rest execute, and the merged output is
    // byte-identical to an uninterrupted run.
    {
      SurveyServiceConfig cfg = service_config(2);
      cfg.checkpoint_path = path;
      SurveyService service{cfg};
      service.restore(core::SurveyCheckpoint::load(path));
      service.admit(fleet);
      service.drain();
      EXPECT_EQ(service.attempts(0), 0) << "adopted, not re-run; " << label;
      EXPECT_EQ(service.attempts(8), 1) << label;
      EXPECT_EQ(canonical_jsonl(service), ref->jsonl) << label;
      EXPECT_EQ(snapshot_dump(service.metrics()), ref->snapshots) << label;
      service.stop();
    }
    // The new generation's checkpoint carried the adopted targets' lines
    // too: five carried and four rendered on its workers make the bytes
    // of one uninterrupted run's checkpoint.
    EXPECT_EQ(core::SurveyCheckpoint::load(path).completed_count(), 9u) << label;
    if (ref == &reference()) {
      EXPECT_EQ(file_bytes(path), full_checkpoint().serialize()) << label;
    }
  }
  std::remove(path.c_str());
}

TEST(SurveyService, RestoreRejectsAMismatchedOrPerShardCheckpoint) {
  // Each header differs from this plan's in one field.
  const core::SurveyCheckpoint::Header plan = *full_checkpoint().header();
  const auto differing = [&plan](auto change) {
    core::SurveyCheckpoint::Header header = plan;
    change(header);
    core::SurveyCheckpoint cp;
    cp.set_header(header);
    return cp;
  };
  using Header = core::SurveyCheckpoint::Header;
  const core::SurveyCheckpoint wrong_seed = differing([](Header& h) { h.seed = kSeed + 1; });
  const core::SurveyCheckpoint wrong_rounds = differing([](Header& h) { h.rounds = kRounds + 1; });
  const core::SurveyCheckpoint per_shard = differing([](Header& h) { h.shards = 3; });
  const core::SurveyCheckpoint wrong_samples = differing([](Header& h) { h.samples += 1; });
  const core::SurveyCheckpoint lean = differing([](Header& h) { h.sample_payloads = false; });

  SurveyService service{service_config(1)};
  EXPECT_THROW(service.restore(wrong_seed), std::invalid_argument);
  EXPECT_THROW(service.restore(wrong_rounds), std::invalid_argument);
  EXPECT_THROW(service.restore(per_shard), std::invalid_argument);
  EXPECT_THROW(service.restore(wrong_samples), std::invalid_argument);
  EXPECT_THROW(service.restore(lean), std::invalid_argument)
      << "records without sample payloads cannot feed a service that emits them";

  // A lean service needs no payloads, so it adopts a retaining run's
  // records: every target, to the same metrics.
  SurveyServiceConfig lean_cfg = service_config(2);
  lean_cfg.retain_results = false;
  SurveyService lean_service{lean_cfg};
  lean_service.restore(full_checkpoint());
  lean_service.admit(nine_targets());
  lean_service.drain();
  for (std::size_t i = 0; i < 9; ++i) EXPECT_EQ(lean_service.attempts(i), 0) << "target " << i;
  EXPECT_EQ(snapshot_dump(lean_service.metrics()), reference().snapshots);

  service.admit(nine_targets()[0], 0);
  EXPECT_THROW(service.restore(core::SurveyCheckpoint{}), std::logic_error)
      << "restore must precede admission";
  service.drain();
}

TEST(SurveyService, ARejectedRestoreLeavesTheCheckpointFileAsItWas) {
  // survey_service --resume with another plan's checkpoint exits once
  // restore() refuses it; the service's final save must not replace the
  // refused file with an empty checkpoint of the new plan.
  const std::string path = testing::TempDir() + "survey_service_refused.ckpt";
  full_checkpoint().save(path);
  SurveyServiceConfig other_seed = service_config(1);
  other_seed.seed = kSeed + 1;
  SurveyServiceConfig other_samples = service_config(1);
  other_samples.run.samples += 1;
  for (SurveyServiceConfig cfg : {other_seed, other_samples}) {
    cfg.checkpoint_path = path;
    {
      SurveyService service{cfg};
      EXPECT_THROW(service.restore(core::SurveyCheckpoint::load(path)), std::invalid_argument);
    }
    const core::SurveyCheckpoint kept = core::SurveyCheckpoint::load(path);
    EXPECT_EQ(kept.serialize(), full_checkpoint().serialize())
        << "seed " << cfg.seed << ", samples " << cfg.run.samples;
  }
  std::remove(path.c_str());
}

TEST(SurveyService, RecordsOfAnotherFleetAreRejectedAtAdmission) {
  // The checkpoint holds host-0..8. A fleet whose index 1 is another host
  // must not adopt host-1's results under that host's name.
  SurveyService service{service_config(2)};
  service.restore(full_checkpoint());
  std::vector<core::SurveyTargetConfig> other = nine_targets();
  other[1].name = "other-1";
  EXPECT_THROW(service.admit(other[1], 1), std::invalid_argument);
  // In a batch, the targets before the rejected one stay admitted, the
  // rest are not, and drain() still returns.
  EXPECT_THROW(service.admit(other), std::invalid_argument);
  service.drain();
  EXPECT_EQ(service.admitted(), 1u);
  EXPECT_EQ(service.attempts(0), 0) << "host-0 matched its record and was adopted";

  // The rejections left no admission state behind: the right targets
  // take indices 1..8 and the output is the uninterrupted run's.
  std::vector<core::SurveyTargetConfig> rest = nine_targets();
  rest.erase(rest.begin());
  EXPECT_EQ(service.admit(std::move(rest)).front(), 1u);
  service.drain();
  EXPECT_EQ(service.attempts(1), 0);
  EXPECT_EQ(canonical_jsonl(service), reference().jsonl);

  // A record whose log names host-1 but whose metrics are host-4's,
  // re-recorded so its checksum holds, is not host-1's result either.
  core::SurveyCheckpoint forged = full_checkpoint();
  core::ShardRunResult mixed = forged.restore_shard(1);
  mixed.metrics = forged.restore_shard(4).metrics;
  forged.record_shard(mixed, forged.attempts(1));
  SurveyService misfiled{service_config(2)};
  misfiled.restore(forged);
  EXPECT_THROW(misfiled.admit(nine_targets()[1], 1), std::invalid_argument);
  misfiled.drain();
}

TEST(SurveyService, AnUndecodableRecordRejectsTheRestoreAndLeavesTheFile) {
  // Record 4 loses its body's `end` but keeps a valid checksum, so load()
  // keeps it. restore() must refuse the whole checkpoint before keeping
  // any record: the refused service's final save would otherwise rewrite
  // the file without record 4 and every record after it.
  std::string forged;
  std::istringstream lines{full_checkpoint().serialize()};
  for (std::string line; std::getline(lines, line);) {
    report::Json record = *report::Json::parse(line);
    if (record.at("type").as_string() == "shard_done" && record.at("shard").as_u64() == 4) {
      report::Json body = report::Json::object();
      for (const auto& [key, value] : record.at("body").members()) {
        if (key != "end") body.set(key, value);
      }
      char crc[17];
      std::snprintf(crc, sizeof crc, "%016llx",
                    static_cast<unsigned long long>(util::fnv1a64(body.dump())));
      record = report::Json::object();
      record.set("type", "shard_done");
      record.set("shard", report::Json::u64(4));
      record.set("crc", std::string{crc});
      record.set("body", std::move(body));
      line = record.dump();
    }
    forged += line + "\n";
  }
  const std::string path = testing::TempDir() + "survey_service_undecodable.ckpt";
  std::ofstream{path, std::ios::binary} << forged;
  const core::SurveyCheckpoint loaded = core::SurveyCheckpoint::load(path);
  EXPECT_EQ(loaded.completed_count(), 9u) << "the forged record passes its checksum";
  {
    SurveyServiceConfig cfg = service_config(1);
    cfg.checkpoint_path = path;
    SurveyService service{cfg};
    EXPECT_THROW(service.restore(loaded), std::invalid_argument);
  }
  const std::string kept = file_bytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(kept, forged);
}

TEST(SurveyService, SavesKeepRestoredRecordsThatWereNotAdopted) {
  // A resumed run's restored records are durable progress until adopted:
  // no save of the new generation may drop them.
  const std::string path = testing::TempDir() + "survey_service_kept.ckpt";
  full_checkpoint().save(path);
  SurveyServiceConfig cfg = service_config(2);
  cfg.checkpoint_path = path;

  // Admission rejects another fleet's first target; the destructor's
  // final save then runs with nothing adopted.
  {
    SurveyService service{cfg};
    service.restore(core::SurveyCheckpoint::load(path));
    std::vector<core::SurveyTargetConfig> other = nine_targets();
    other[0].name = "other-0";
    EXPECT_THROW(service.admit(std::move(other)), std::invalid_argument);
  }
  core::SurveyCheckpoint kept = core::SurveyCheckpoint::load(path);
  EXPECT_EQ(kept.torn_records(), 0u);
  EXPECT_EQ(kept.serialize(), full_checkpoint().serialize());

  // A resumed run stopped mid-admission (a SIGTERM) adopts two targets;
  // the seven it never reached stay recorded.
  {
    SurveyService service{cfg};
    service.restore(core::SurveyCheckpoint::load(path));
    std::vector<core::SurveyTargetConfig> fleet = nine_targets();
    fleet.resize(2);
    service.admit(std::move(fleet));
    service.stop();
  }
  kept = core::SurveyCheckpoint::load(path);
  EXPECT_EQ(kept.torn_records(), 0u);
  EXPECT_EQ(kept.serialize(), full_checkpoint().serialize());

  // A second restore adds to the first: targets 0..4 from one checkpoint
  // and 5..8 from another are all kept.
  core::SurveyCheckpoint first;
  core::SurveyCheckpoint second;
  for (std::size_t i = 0; i < 9; ++i) {
    (i < 5 ? first : second).record_shard(full_checkpoint().restore_shard(i));
  }
  {
    SurveyService service{cfg};
    service.restore(first);
    service.restore(second);
    service.stop();
  }
  const std::string both = file_bytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(both, full_checkpoint().serialize());
}

TEST(SurveyService, AWorldTornDownMidRunLeavesNothingBehind) {
  // Target 3's world dies mid-survey: build it, drive it partway, tear
  // it down...
  {
    core::SurveyTargetConfig target = nine_targets()[3];
    core::pin_global_identity(target, 3, kSeed);
    core::SurveyTestbedConfig world;
    world.seed = kSeed;
    world.targets.push_back(std::move(target));
    core::SurveyTestbed casualty{std::move(world)};
    core::SurveyEngine partial{casualty.loop()};
    casualty.populate(partial);
    partial.start(quick_run(), kRounds, util::Duration::millis(500));
    casualty.loop().run_until(util::TimePoint::from_ns(2'000'000'000));
    ASSERT_TRUE(partial.running()) << "tear-down must interrupt a live survey";
  }
  // ...and nothing of it survives: running the fleet again reproduces the
  // reference (the recovery path is "just run it again").
  {
    SurveyService service{service_config(1)};
    service.admit(nine_targets());
    service.drain();
    EXPECT_EQ(canonical_jsonl(service), reference().jsonl);
    EXPECT_EQ(snapshot_dump(service.metrics()), reference().snapshots);
  }

  // The service's own path: a world that throws mid-run (here its suite
  // factory, at target 3's first completed measurement) is torn down on
  // its worker and retried there, to the same bytes.
  std::atomic<bool> thrown{false};
  SurveyServiceConfig cfg = service_config(1);
  cfg.engine.suite_factory = [&thrown](std::string_view target, std::string_view test) {
    if (target == "host-3" && !thrown.exchange(true)) {
      throw std::runtime_error{"world died mid-run"};
    }
    return metrics::default_suite(target, test);
  };
  SurveyService service{cfg};
  service.admit(nine_targets());
  service.drain();
  EXPECT_TRUE(thrown.load());
  EXPECT_EQ(service.attempts(3), 2);
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(canonical_jsonl(service), reference().jsonl);
  EXPECT_EQ(snapshot_dump(service.metrics()), reference().snapshots);
}

TEST(SurveyService, TransientFailuresRetryToTheSameBytes) {
  util::FaultInjector faults{17};
  // Target 3's world dies twice before its run and once after (the
  // completed-but-unharvested class); the third run attempt succeeds.
  faults.arm({"shard/3/run", util::FaultInjector::Mode::kThrow, 1.0, 2, true});
  faults.arm({"shard/3/abort", util::FaultInjector::Mode::kShardAbort, 1.0, 1, true});

  SurveyServiceConfig cfg = service_config(2);
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 5;
  SurveyService service{cfg};
  service.admit(nine_targets());
  service.drain();
  EXPECT_EQ(service.attempts(3), 4) << "two pre-run faults + one abort + success";
  EXPECT_EQ(service.attempts(2), 1);
  EXPECT_FALSE(service.degraded());
  // Retries are invisible in the output: same bytes as the fault-free run.
  EXPECT_EQ(canonical_jsonl(service), reference().jsonl);
  EXPECT_EQ(snapshot_dump(service.metrics()), reference().snapshots);
}

TEST(SurveyService, ExhaustedRetriesDegradeWithFullFleetAccounting) {
  util::FaultInjector faults{17};
  faults.arm({"shard/4/run", util::FaultInjector::Mode::kThrow, 1.0, 0, true});

  const std::string path = testing::TempDir() + "survey_service_degraded.ckpt";
  std::remove(path.c_str());
  SurveyServiceConfig cfg = service_config(2);
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 2;
  cfg.checkpoint_path = path;
  SurveyService service{cfg};
  service.admit(nine_targets());
  service.drain();

  EXPECT_TRUE(service.degraded());
  ASSERT_EQ(service.failed_target_indices().size(), 1u);
  EXPECT_EQ(service.failed_target_indices()[0], 4u);
  EXPECT_EQ(service.attempts(4), 2);
  ASSERT_EQ(service.failure_messages().size(), 1u);
  EXPECT_NE(service.failure_messages()[0].find("shard/4/run"), std::string::npos);
  EXPECT_EQ(service.survey_end().targets, 8u) << "participants only";
  EXPECT_EQ(service.survey_end().failed_shards, 1u);

  const auto manifest = service.participation();
  ASSERT_EQ(manifest.size(), 9u);
  for (const auto& [name, participated] : manifest) {
    EXPECT_EQ(participated, name != "host-4") << name;
  }
  // The degraded stream ends with the participation record.
  const std::string jsonl = canonical_jsonl(service);
  EXPECT_NE(jsonl.find("\"type\":\"participation\""), std::string::npos);
  EXPECT_NE(jsonl.find("{\"target\":\"host-4\",\"participated\":false}"), std::string::npos);

  const SurveyService::Snapshot snap = service.snapshot();
  EXPECT_EQ(snap.failed, 1u);
  EXPECT_TRUE(snap.degraded);

  // The degraded run's checkpoint resumes to a CLEAN survey once the
  // fault is gone: the failed target was never recorded, so it re-runs.
  service.stop();
  const core::SurveyCheckpoint recorded = core::SurveyCheckpoint::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(recorded.completed_count(), 8u);
  EXPECT_FALSE(recorded.has_shard(4));
  SurveyService healed{service_config(2)};
  healed.restore(recorded);
  healed.admit(nine_targets());
  healed.drain();
  EXPECT_FALSE(healed.degraded());
  EXPECT_EQ(healed.attempts(4), 1);
  EXPECT_EQ(healed.attempts(3), 0);
  EXPECT_EQ(canonical_jsonl(healed), reference().jsonl);
}

TEST(SurveyService, PlanErrorsSurfaceAtDrainNotAsDegradation) {
  SurveyService service{service_config(2)};
  std::vector<core::SurveyTargetConfig> fleet = nine_targets();
  core::SurveyTargetConfig typo;
  typo.name = "typo-host";
  typo.tests = {core::TestSpec{"no-such-technique"}};
  service.admit(fleet[0], 0);
  service.admit(typo, 9);
  EXPECT_THROW(service.drain(), std::invalid_argument);
  // The plan error is consumed by the throwing drain; the healthy
  // target's results remain readable.
  service.drain();
  EXPECT_EQ(service.completed(), 1u);
  EXPECT_EQ(service.metrics().measurements("host-0", "syn"),
            static_cast<std::uint64_t>(kRounds));
}

TEST(SurveyService, ResultsAreGatedOnQuiescence) {
  // A suite factory that blocks the first world until released: while it
  // holds the worker, the service is demonstrably busy and the merged
  // accessors must refuse rather than hand out a torn view.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  SurveyServiceConfig cfg = service_config(2);
  cfg.engine.suite_factory = [released](std::string_view target, std::string_view test) {
    released.wait();
    return metrics::default_suite(target, test);
  };
  SurveyService service{cfg};
  service.admit(nine_targets()[0], 0);
  EXPECT_THROW(service.metrics(), std::logic_error);
  EXPECT_THROW(service.measurements(), std::logic_error);
  EXPECT_THROW(canonical_jsonl(service), std::logic_error);
  release.set_value();
  service.drain();
  EXPECT_NO_THROW(service.metrics());
}

TEST(SurveyService, AnUnwritableCheckpointFailsDrainNotTheProcess) {
  // host-1's world is held in its suite factory while host-0 completes, so
  // the background checkpointer has a dirty checkpoint and fails to save
  // it for many ticks. Each failure must stay on its thread; drain() makes
  // the last save on the caller's thread and reports the failure there.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  SurveyServiceConfig cfg = service_config(2);
  cfg.checkpoint_path = testing::TempDir() + "no-such-dir/survey_service.ckpt";
  cfg.checkpoint_interval = std::chrono::milliseconds(1);
  cfg.engine.suite_factory = [released](std::string_view target, std::string_view test) {
    if (target == "host-1") released.wait();
    return metrics::default_suite(target, test);
  };
  {
    SurveyService service{cfg};
    std::vector<core::SurveyTargetConfig> fleet = nine_targets();
    fleet.resize(2);
    service.admit(std::move(fleet));
    while (service.completed() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.set_value();
    EXPECT_THROW(service.drain(), std::runtime_error);
    EXPECT_EQ(service.completed(), 2u);
    EXPECT_EQ(service.metrics().measurements("host-1", "syn"),
              static_cast<std::uint64_t>(kRounds));
  }  // the destructor's own final save fails too, and it still returns
}

TEST(SurveyService, AdmissionRejectsIdentityCollisionsFleetWide) {
  SurveyService service{service_config(1)};
  std::vector<core::SurveyTargetConfig> fleet = nine_targets();
  service.admit(fleet[0], 0);
  EXPECT_THROW(service.admit(fleet[0], 5), std::invalid_argument) << "duplicate name";
  core::SurveyTargetConfig clone = fleet[1];
  clone.name = "unique-name";
  clone.address = core::default_target_address(0);
  EXPECT_THROW(service.admit(clone, 6), std::invalid_argument) << "duplicate address";
  EXPECT_THROW(service.admit(fleet[2], 0), std::invalid_argument) << "duplicate index";
  // An explicit name equal to another target's pinned default name is the
  // sneaky variant of the duplicate-name bug.
  core::SurveyTargetConfig nameless = fleet[3];
  nameless.name.clear();
  EXPECT_EQ(service.admit(nameless, 3), 3u);
  core::SurveyTargetConfig impostor = fleet[4];
  impostor.name = core::default_target_name(3);
  EXPECT_THROW(service.admit(impostor, 4), std::invalid_argument) << "default-name collision";
  // A collision mid-batch: the target before it is admitted and runs, so
  // drain() returns instead of waiting on a target never submitted.
  EXPECT_THROW(service.admit(std::vector{fleet[5], fleet[0]}), std::invalid_argument);
  service.drain();
  EXPECT_EQ(service.admitted(), 3u);
  EXPECT_EQ(service.completed(), 3u);
}

TEST(SurveyService, StopRetiresTheServiceButKeepsResultsReadable) {
  SurveyService service{service_config(2)};
  service.admit(nine_targets());
  service.stop();
  EXPECT_THROW(service.admit(nine_targets()[0]), std::logic_error);
  EXPECT_EQ(canonical_jsonl(service), reference().jsonl);
  const SurveyService::Snapshot snap = service.snapshot();
  EXPECT_EQ(snap.completed, 9u);
  EXPECT_EQ(snap.workers, 2u) << "scheduler identity preserved across stop";
  EXPECT_EQ(service.scheduler_stats().executed, 9u);
}

// drain() wakes inside the last job, as that job's completion lands: the
// counters read right after it must already include that job.
TEST(SurveyService, ADrainedServiceCountsEveryJobItRan) {
  SurveyService service{service_config(1)};
  for (std::uint64_t jobs = 1; jobs <= 20; ++jobs) {
    core::SurveyTargetConfig target;
    target.tests = {core::TestSpec{"syn"}};
    service.admit(target);
    service.drain();
    EXPECT_EQ(service.snapshot().jobs_executed, jobs);
    EXPECT_EQ(service.scheduler_stats().executed, jobs);
  }
}

TEST(SurveyService, ChunkedEmissionMatchesTheReferenceOnThePoolAndAfterStop) {
  const Reference& ref = many_reference();
  const std::size_t targets = many_targets().size();
  const std::size_t chunks = targets / SurveyService::kEmitChunkTargets;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    SurveyService service{service_config(workers)};
    service.admit(many_targets());
    service.drain();
    EXPECT_EQ(canonical_jsonl(service), ref.jsonl) << "workers=" << workers;
    service.stop();
    // One job per target, then one per chunk for each record family; an
    // emission after stop() renders inline and runs no job.
    EXPECT_EQ(service.scheduler_stats().executed, targets + 2 * chunks) << "workers=" << workers;
    EXPECT_EQ(canonical_jsonl(service), ref.jsonl) << "inline after stop, workers=" << workers;
    EXPECT_EQ(service.scheduler_stats().executed, targets + 2 * chunks) << "workers=" << workers;
  }
}

TEST(SurveyService, AStreamFailingMidEmissionThrowsAndTheNextEmissionIsWhole) {
  const Reference& ref = many_reference();
  SurveyService service{service_config(4)};
  service.admit(many_targets());
  service.drain();
  // The stream fails mid-way through the measurement records, then just
  // inside the metrics records, with render jobs in flight both times.
  for (const std::size_t budget :
       {ref.jsonl.size() / 2, ref.jsonl.find("{\"type\":\"metrics\"") + 1}) {
    FailingBuf buf{budget};
    std::ostream broken{&buf};
    report::JsonlWriter writer{broken};
    EXPECT_THROW(service.emit_jsonl(writer), std::runtime_error) << "budget=" << budget;
    EXPECT_EQ(canonical_jsonl(service), ref.jsonl) << "budget=" << budget;
  }
}

TEST(SurveyService, ADegradedRunNumbersAndOrdersItsRecordsAcrossChunks) {
  const std::vector<core::SurveyTargetConfig> fleet = many_targets();
  const std::size_t failed = fleet.size() / 2;
  const std::string failed_name = fleet[failed].name;
  // The failed target sits in neither the first nor the last chunk.
  std::vector<std::string> names;
  for (const auto& target : fleet) names.push_back(target.name);
  std::sort(names.begin(), names.end());
  const auto rank = static_cast<std::size_t>(
      std::find(names.begin(), names.end(), failed_name) - names.begin());
  ASSERT_GE(rank, SurveyService::kEmitChunkTargets);
  ASSERT_LT(rank, fleet.size() - SurveyService::kEmitChunkTargets);

  util::FaultInjector faults{17};
  faults.arm({"shard/" + std::to_string(failed) + "/run", util::FaultInjector::Mode::kThrow, 1.0,
              0, true});
  SurveyServiceConfig cfg = service_config(4);
  cfg.engine.faults = &faults;
  cfg.retry.max_attempts = 1;
  SurveyService service{cfg};
  service.admit(fleet);
  service.drain();
  ASSERT_TRUE(service.degraded());

  std::size_t next = 0;
  std::vector<std::pair<std::string, std::string>> metric_keys;
  for (const report::Json& record : report::read_jsonl_text(canonical_jsonl(service))) {
    const std::string& type = record.at("type").as_string();
    if (type != "sample" && type != "measurement" && type != "metrics") continue;
    EXPECT_NE(record.at("target").as_string(), failed_name) << type;
    if (type == "metrics") {
      metric_keys.emplace_back(record.at("target").as_string(), record.at("test").as_string());
    } else {
      // A sample carries the index of the measurement record that follows.
      EXPECT_EQ(record.at("measurement").as_u64(), next) << type;
      if (type == "measurement") ++next;
    }
  }
  std::size_t expected = 0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (i != failed) expected += fleet[i].tests.size() * kRounds;
  }
  EXPECT_EQ(next, expected);
  EXPECT_EQ(next, service.survey_end().measurements);
  EXPECT_TRUE(std::is_sorted(metric_keys.begin(), metric_keys.end()));
  EXPECT_EQ(metric_keys.size(), service.snapshot().metric_keys);
}

TEST(SurveyService, SnapshotsPolledAcrossStopAreRaceFree) {
  // stop() retires the pool while a reader polls the live view. Each poll
  // must see either the running pool or the retired one's final
  // counters, never a pool being torn down (TSAN checks the handover).
  SurveyService service{service_config(2)};
  service.admit(nine_targets());
  std::atomic<bool> running{true};
  std::atomic<std::size_t> polls{0};
  std::thread poller{[&] {
    while (running.load()) {
      EXPECT_EQ(service.snapshot().workers, 2u);
      EXPECT_EQ(service.scheduler_stats().executed_by_worker.size(), 2u);
      polls.fetch_add(1);
    }
  }};
  // The polls span the whole stop() call: one before it, two after it.
  while (polls.load() < 1) std::this_thread::yield();
  service.stop();
  const std::size_t at_stop = polls.load();
  while (polls.load() < at_stop + 2) std::this_thread::yield();
  running.store(false);
  poller.join();
  EXPECT_EQ(service.scheduler_stats().executed, 9u);
}

}  // namespace
}  // namespace reorder::service
