// Quickstart: measure one-way reordering to a (simulated) TCP server.
//
// Builds the canonical testbed — a probe host and a remote server joined
// by an emulated path that swaps 10% of adjacent packet pairs in the
// forward direction — then runs the paper's single-connection test and
// prints per-direction verdict counts and rates through the report
// layer's table emitter. With --jsonl=PATH the same result additionally
// streams out as JSON Lines via a ResultSink (the machine-readable side
// of the pipeline).
//
//   $ quickstart [--swap-prob=0.1] [--samples=50] [--seed=1] [--jsonl=run.jsonl]
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "core/result_sink.hpp"
#include "core/test_registry.hpp"
#include "core/testbed.hpp"
#include "metrics/engine.hpp"
#include "report/sinks.hpp"
#include "report/table.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace reorder;

  double swap_prob = 0.10;
  std::int64_t samples = 50;
  std::int64_t seed = 1;
  std::string jsonl_path;
  util::Flags flags{"quickstart", "first packet-reordering measurement"};
  flags.add_double("swap-prob", &swap_prob, "forward-path adjacent swap probability");
  flags.add_i64("samples", &samples, "measurement samples to take");
  flags.add_i64("seed", &seed, "simulation seed");
  flags.add_string("jsonl", &jsonl_path, "also stream the result to this JSONL file");
  if (!flags.parse(argc, argv)) return 1;

  // 1. Build the world: probe <-> path <-> server.
  core::TestbedConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(seed);
  cfg.forward.swap_probability = swap_prob;
  core::Testbed bed{cfg};

  // 2. Point a measurement technique at the server (registry-driven; any
  //    technique name works here — try "syn" or "dual-connection").
  auto test = core::make_registered_test(bed.probe(), bed.remote_addr(),
                                         core::TestSpec{"single-connection"});

  // 3. Run it.
  core::TestRunConfig run;
  run.samples = static_cast<int>(samples);
  const core::TestRunResult result = bed.run_sync(*test, run);
  if (!result.admissible) {
    std::printf("measurement failed: %s\n", result.note.c_str());
    return 1;
  }

  // 4. Read the verdicts.
  std::printf("test: %s, %zu samples against %s\n", result.test_name.c_str(),
              result.samples.size(), bed.remote_addr().to_string().c_str());
  report::Table table{std::vector<report::Column>{{"direction", report::Align::kLeft},
                                                  {"in-order", report::Align::kRight},
                                                  {"reordered", report::Align::kRight},
                                                  {"ambiguous", report::Align::kRight},
                                                  {"lost", report::Align::kRight},
                                                  {"rate", report::Align::kRight},
                                                  {"95% CI", report::Align::kLeft}}};
  const auto add_row = [&table](const char* dir, const core::ReorderEstimate& e) {
    const auto ci = e.proportion();
    // Appended in order: gcc 12 at -O3 misreads `"[" + fixed(...)` (an
    // insert at the front) as an overlapping copy (-Wrestrict).
    std::string interval = "[";
    interval.append(report::fixed(ci.lower, 3)).append(", ");
    interval.append(report::fixed(ci.upper, 3)).append("]");
    table.row({dir, report::integer(e.in_order), report::integer(e.reordered),
               report::integer(e.ambiguous), report::integer(e.lost),
               report::fixed(e.rate_or(0.0), 3), std::move(interval)});
  };
  add_row("forward", result.forward);
  add_row("reverse", result.reverse);
  table.print();

  // 5. Optionally stream the same result machine-readably: publish_result
  //    feeds any ResultSink the exact event stream a survey would — here
  //    the JSONL sink and a metrics engine side by side, with the
  //    engine's snapshot appended as a `metrics` record.
  if (!jsonl_path.empty()) {
    std::ofstream file{jsonl_path};
    if (!file) {
      std::fprintf(stderr, "cannot open %s for writing\n", jsonl_path.c_str());
      return 1;
    }
    report::JsonlWriter writer{file};
    report::JsonlResultSink sink{writer};
    metrics::MetricEngine engine;
    metrics::EngineSink engine_sink{engine};
    core::SinkFanout fanout;
    fanout.add(sink);
    fanout.add(engine_sink);
    core::publish_result(fanout, bed.remote_addr().to_string(), result.test_name,
                         util::TimePoint::epoch(), result);
    engine.emit_jsonl(writer);
    std::printf("\nstreamed %zu JSONL records to %s\n", writer.lines_written(),
                jsonl_path.c_str());
  }

  std::printf("\nconfigured forward swap probability was %.3f — the forward rate above\n"
              "should sit inside its confidence interval.\n",
              swap_prob);
  return 0;
}
