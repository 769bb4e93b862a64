// survey: continuous round-robin measurement of a population of hosts —
// the shape of the paper's 20-day, 50-host experiment — ending in the
// per-path reordering-rate CDF (Figure 5's presentation), rendered
// through the report layer.
//
//   $ survey --hosts=20 --rounds=6 --samples=15 --reordering-fraction=0.44
#include <cstdio>

#include "core/survey_engine.hpp"
#include "core/testbed.hpp"
#include "report/builders.hpp"
#include "util/flags.hpp"
#include "util/random.hpp"

int main(int argc, char** argv) {
  using namespace reorder;
  using util::Duration;

  std::int64_t hosts = 20;
  std::int64_t rounds = 6;
  std::int64_t samples = 15;
  std::int64_t seed = 11;
  double reordering_fraction = 0.44;

  util::Flags flags{"survey", "round-robin reordering survey over many paths"};
  flags.add_i64("hosts", &hosts, "number of simulated paths");
  flags.add_i64("rounds", &rounds, "measurement rounds per host");
  flags.add_i64("samples", &samples, "samples per measurement (paper: 15)");
  flags.add_i64("seed", &seed, "population seed");
  flags.add_double("reordering-fraction", &reordering_fraction,
                   "fraction of paths that reorder at all");
  if (!flags.parse(argc, argv)) return 1;

  util::Rng population{static_cast<std::uint64_t>(seed)};
  report::RateCdfReport cdf{{0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3}};

  report::Table per_host = report::Table::with_headers(
      {"host", "true fwd", "true rev", "measured fwd", "measured rev"});
  for (int h = 0; h < hosts; ++h) {
    double true_fwd = 0.0;
    double true_rev = 0.0;
    if (population.bernoulli(reordering_fraction)) {
      true_fwd = std::min(0.35, population.exponential(0.06));
      true_rev = true_fwd * population.uniform(0.1, 0.6);
    }

    core::TestbedConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed) * 100 + static_cast<std::uint64_t>(h);
    cfg.forward.swap_probability = true_fwd;
    cfg.reverse.swap_probability = true_rev;
    cfg.remote = core::default_remote_config();
    cfg.remote.behavior.immediate_ack_on_hole_fill = true;
    core::Testbed bed{cfg};

    core::SurveyEngine session{bed.loop()};
    session.add_target("host", bed.probe(), bed.remote_addr(),
                       {core::TestSpec{"single-connection"}, core::TestSpec{"syn"}});

    core::TestRunConfig run;
    run.samples = static_cast<int>(samples);
    session.run(run, static_cast<int>(rounds), Duration::seconds(1));

    // Pool both techniques, as the paper's per-path summary does — all
    // snapshot reads of the survey engine's metric accumulators.
    core::ReorderEstimate pooled_fwd;
    core::ReorderEstimate pooled_rev;
    for (const char* test : {"single-connection", "syn"}) {
      pooled_fwd += session.metrics().aggregate("host", test, true);
      pooled_rev += session.metrics().aggregate("host", test, false);
    }
    cdf.add_target(session.metrics(), "host");
    per_host.row({report::integer(h), report::fixed(true_fwd, 3), report::fixed(true_rev, 3),
                  report::fixed(pooled_fwd.rate_or(0.0), 3),
                  report::fixed(pooled_rev.rate_or(0.0), 3)});
  }
  per_host.print();

  std::printf("\nCDF of measured per-path rates:\n");
  cdf.table().print();
  std::printf("\npaths with observed reordering: %d / %lld (%.0f%%)\n",
              cdf.paths_with_reordering(), static_cast<long long>(hosts),
              100.0 * cdf.paths_with_reordering() / static_cast<double>(hosts));
  return 0;
}
