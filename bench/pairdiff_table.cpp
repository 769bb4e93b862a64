// Reproduces the §IV-B cross-test consistency analysis.
//
// For each host the paper interleaves all four tests for 20 days, then
// runs a paired-difference test (Jain) on each pair of per-measurement
// rate series at a 99.9% confidence interval; the null hypothesis is that
// the tests measure the same process. Reported: single vs SYN agree on
// 78% of forward and 93% of reverse paths; the data-transfer test matches
// SYN/dual (90%) but differs from single-connection, and under heavy
// reordering reports *less than half* the reordering of the others
// because its full-sized packets ride further apart in time.
//
// The host population here mixes stationary swap-shaper paths (where all
// tests agree) with striped time-dependent paths (where the data-transfer
// test's larger packets legitimately see less reordering).
#include <cstdio>

#include "bench_common.hpp"
#include "core/survey_engine.hpp"
#include "metrics/engine.hpp"
#include "report/builders.hpp"

namespace {

using namespace reorder;
using namespace reorder::bench;
using util::Duration;

constexpr int kHosts = 12;
constexpr int kRounds = 10;
constexpr int kSamples = 25;

}  // namespace

int main() {
  heading("Pair-difference consistency between tests", "the §IV-B paired analysis");
  BenchArtifact artifact{"pairdiff_table", "§IV-B paired analysis"};

  util::Rng rng{8181};
  report::PairDifferenceReport report;
  stats::RunningStats dt_ratio;  // data-transfer rate / syn rate on striped paths

  const std::vector<std::string> tests{"single", "dual", "syn", "data-transfer"};

  for (int host = 0; host < kHosts; ++host) {
    const bool striped_path = host % 2 == 1;
    core::TestbedConfig cfg;
    cfg.seed = 8200 + static_cast<std::uint64_t>(host);
    cfg.remote = core::default_remote_config(/*object_size=*/26 * 512);
    cfg.remote.behavior.immediate_ack_on_hole_fill = true;
    if (striped_path) {
      // Time-dependent reordering on the reverse path: affects every
      // test's reply stream, but the data transfer's large segments are
      // spaced further apart and dodge most of it (§IV-C).
      auto striped = sim::StripedLinkConfig{};
      striped.contention_probability = 0.35;  // a heavily reordering path
      cfg.reverse.striped = striped;
      cfg.forward.swap_probability = rng.uniform(0.01, 0.05);
    } else {
      cfg.forward.swap_probability = rng.uniform(0.02, 0.2);
      cfg.reverse.swap_probability = rng.uniform(0.01, 0.1);
    }
    core::Testbed bed{cfg};

    core::SurveyEngine session{bed.loop()};
    std::vector<core::TestSpec> suite;
    for (const auto& t : tests) suite.emplace_back(t);
    session.add_target("host", bed.probe(), bed.remote_addr(), suite);

    core::TestRunConfig run;
    run.samples = kSamples;
    session.run(run, kRounds, Duration::seconds(1));

    // Host-level paired verdicts come straight from the survey engine's
    // metric snapshots (rate series + paired test live behind compare()).
    const auto& registry = core::TestRegistry::global();
    for (std::size_t a = 0; a < tests.size(); ++a) {
      for (std::size_t b = a + 1; b < tests.size(); ++b) {
        for (const bool forward : {true, false}) {
          if (forward && (tests[a] == "data-transfer" || tests[b] == "data-transfer")) continue;
          report.add_compare(session.metrics(), "host", registry.canonical_name(tests[a]),
                             registry.canonical_name(tests[b]), forward, 0.999);
        }
      }
    }
    if (striped_path) {
      const auto dt = session.metrics().aggregate("host", "data-transfer", false);
      const auto syn = session.metrics().aggregate("host", "syn", false);
      if (syn.rate_or(0.0) > 0) dt_ratio.add(dt.rate_or(0.0) / *syn.rate());
    }
    session.metrics().emit_jsonl(artifact.jsonl());
  }

  report.table().print();
  report.emit_jsonl(artifact.jsonl());

  report::Json summary = report::Json::object();
  summary.set("type", "summary");
  summary.set("hosts", kHosts);
  summary.set("dt_over_syn_reverse_ratio_striped", dt_ratio.mean());
  artifact.write(summary);

  std::printf("\npaper anchors: single-vs-syn 78%% fwd / 93%% rev; data-transfer matches\n");
  std::printf("syn & dual on ~90%% of hosts but diverges on heavily reordering paths.\n");
  std::printf("\ndata-transfer / syn reverse-rate ratio on striped (heavy) paths: %.2f\n",
              dt_ratio.mean());
  std::printf("(paper: \"sometimes less than half as many reordering events\")\n");
  return 0;
}
