// Reproduces the related-work baseline the paper critiques in §II:
// Bennett, Partridge & Shectman's ICMP ping-burst methodology ("Packet
// Reordering is not Pathological Network Behavior", ToN 1999).
//
// Their headline numbers: for bursts of five 56-byte ICMP packets, over
// 90% of bursts to their exchange-point path saw at least one reordering
// event; bursts of 100 packets behaved similarly. The paper's two
// critiques, both demonstrated below:
//
//  1. direction ambiguity — a ping burst cannot tell forward from reverse
//     reordering, so asymmetric paths are mischaracterized, while the
//     paper's one-way tests attribute the direction correctly;
//  2. burst-size sensitivity — "fraction of bursts with >= 1 event" is a
//     function of the burst length, not just of the path;
//  3. (operationally) ICMP rate limiting silently starves the measurement.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/ping_burst_test.hpp"
#include "core/result_sink.hpp"
#include "metrics/engine.hpp"
#include "report/table.hpp"

namespace {

using namespace reorder;
using namespace reorder::bench;
using util::Duration;

core::PingBurstResult run_pings(core::Testbed& bed, int burst_size, int bursts) {
  core::PingBurstOptions opts;
  opts.burst_size = burst_size;
  auto ping = core::TestRegistry::global().create_as<core::PingBurstTest>(
      bed.probe(), bed.remote_addr(), core::TestSpec{"ping-burst", 0, opts});
  core::TestRunConfig run;
  run.samples = bursts;
  run.sample_spacing = Duration::millis(60);
  (void)bed.run_sync(*ping, run, /*deadline_s=*/600);
  return ping->last_burst_result();
}

}  // namespace

int main() {
  heading("Ping-burst baseline (Bennett et al.) vs the paper's one-way tests",
          "the §II related-work comparison");
  BenchArtifact artifact{"related_work_bennett", "§II (Bennett et al.)"};

  // --- 1. Bennett's headline: a heavily reordering path, bursts of 5 ---
  {
    core::TestbedConfig cfg;
    cfg.seed = 1999;
    cfg.forward.swap_probability = 0.35;  // an exchange-point-like path
    cfg.reverse.swap_probability = 0.35;
    core::Testbed bed{cfg};
    const auto r5 = run_pings(bed, 5, 200);
    const auto r100 = run_pings(bed, 100, 40);
    std::printf("heavily reordering path (35%% swap each way):\n");
    std::printf("  bursts of   5: %5.1f%% of bursts saw reordering   (Bennett: >90%%)\n",
                100 * r5.burst_reorder_fraction());
    std::printf("  bursts of 100: %5.1f%% of bursts saw reordering\n",
                100 * r100.burst_reorder_fraction());
    std::printf("  burst-size sensitivity: same path, same metric, different answer\n\n");

    for (const auto* r : {&r5, &r100}) {
      report::Json row = report::Json::object();
      row.set("type", "row");
      row.set("study", "burst_size_sensitivity");
      row.set("burst_size", r == &r5 ? 5 : 100);
      row.set("burst_reorder_fraction", r->burst_reorder_fraction());
      artifact.write(row);
    }
  }

  // --- 2. Direction ambiguity on asymmetric paths ---
  std::printf("direction attribution on asymmetric paths (pair-rate estimates):\n");
  report::Table table{std::vector<report::Column>{{"path (fwd/rev swap)", report::Align::kLeft},
                                                  {"ping", report::Align::kRight},
                                                  {"dual fwd", report::Align::kRight},
                                                  {"dual rev", report::Align::kRight}}};
  struct Case {
    double fwd;
    double rev;
  };
  // Dual-test estimates stream into the metrics engine (one key per
  // asymmetric path) and are read back as aggregate snapshots.
  metrics::MetricEngine engine;
  metrics::EngineSink engine_sink{engine};
  for (const Case c : {Case{0.20, 0.0}, Case{0.0, 0.20}, Case{0.10, 0.10}}) {
    core::TestbedConfig cfg;
    cfg.seed = 2100 + static_cast<std::uint64_t>(c.fwd * 100 + c.rev);
    cfg.forward.swap_probability = c.fwd;
    cfg.reverse.swap_probability = c.rev;
    core::Testbed bed{cfg};
    const auto ping = run_pings(bed, 2, 400);  // pairs, like the paper's tests

    auto dual = make_test("dual", bed);
    core::TestRunConfig run;
    run.samples = 400;
    run.sample_spacing = Duration::millis(60);
    const auto d = bed.run_sync(*dual, run, 3000);

    char label[32];
    std::snprintf(label, sizeof label, "%.2f / %.2f", c.fwd, c.rev);
    core::publish_result(engine_sink, label, d.test_name, util::TimePoint::epoch(), d);
    const auto dual_fwd = engine.aggregate(label, d.test_name, true);
    const auto dual_rev = engine.aggregate(label, d.test_name, false);
    table.row({label, report::fixed(ping.pair_rate(), 3),
               report::fixed(dual_fwd.rate_or(0.0), 3),
               report::fixed(dual_rev.rate_or(0.0), 3)});

    report::Json row = report::Json::object();
    row.set("type", "row");
    row.set("study", "direction_attribution");
    row.set("true_fwd", c.fwd);
    row.set("true_rev", c.rev);
    row.set("ping_rate", ping.pair_rate());
    row.set("dual_fwd", dual_fwd.rate_or(0.0));
    row.set("dual_rev", dual_rev.rate_or(0.0));
    artifact.write(row);
  }
  table.print();
  engine.emit_jsonl(artifact.jsonl());
  std::printf("  -> the ping estimate cannot distinguish the three paths' directions;\n"
              "     the dual-connection test attributes each direction correctly.\n\n");

  // --- 3. ICMP rate limiting starves the measurement ---
  {
    core::TestbedConfig cfg;
    cfg.seed = 2200;
    cfg.remote = core::default_remote_config();
    cfg.remote.ping_rate_limit_per_sec = 50;
    core::Testbed bed{cfg};
    const auto r = run_pings(bed, 5, 100);
    std::printf("rate-limited host (50 replies/s): reply rate %.0f%%, "
                "complete bursts %d/%d\n",
                100 * r.reply_rate(), r.bursts_complete, r.bursts);
    std::printf("(the paper: \"system and network operators alike increasingly filter\n"
                " and rate-limit such traffic\")\n");

    report::Json row = report::Json::object();
    row.set("type", "summary");
    row.set("study", "icmp_rate_limit");
    row.set("reply_rate", r.reply_rate());
    row.set("bursts_complete", r.bursts_complete);
    row.set("bursts", r.bursts);
    artifact.write(row);
  }
  return 0;
}
