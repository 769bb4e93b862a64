// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>] [--ledger <file.jsonl>]
//
// Workloads: ingest_inorder, ingest_reordered, survey_batch.
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics and writes the ledger.
// Human-readable lines come first; the last line of standard output is one
// JSON object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;
using reorder::report::Json;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ingest_inorder|ingest_reordered|survey_batch> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--work-dir <dir>] [--ledger <file>]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir") {
      options.work_dir = v;
    } else if (arg == "--ledger") {
      options.ledger_path = v;
    } else {
      return false;
    }
  }
  return !options.workload.empty() && options.seconds >= 0.0;
}

Json layer_json(const Options& options, const perfbench::LedgerRow& row) {
  Json j = Json::object();
  j.set("type", "layer");
  j.set("workload", options.workload);
  j.set("seed", Json::u64(options.seed));
  j.set("metric", row.metric);
  j.set("value", row.value);
  j.set("unit", row.unit);
  j.set("pct_of_e2e", row.pct_of_e2e ? Json{*row.pct_of_e2e} : Json{});
  j.set("on_path", row.on_path);
  j.set("input", row.input);
  return j;
}

void write_ledger(const Options& options, const Report& report, const Json& descriptor) {
  std::ofstream out{options.ledger_path};
  if (!out) throw std::runtime_error{"perfbench: cannot write " + options.ledger_path};
  Json head = Json::object();
  head.set("type", "descriptor");
  head.set("machine", descriptor);
  out << head.dump() << '\n';
  for (const perfbench::Metric& m : report.display) {
    Json j = Json::object();
    j.set("type", "e2e");
    j.set("workload", options.workload);
    j.set("metric", m.name);
    j.set("value", m.value);
    j.set("unit", m.unit);
    out << j.dump() << '\n';
  }
  for (const perfbench::LedgerRow& row : report.ledger) out << layer_json(options, row).dump() << '\n';
  if (!out) throw std::runtime_error{"perfbench: writing " + options.ledger_path + " failed"};
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return usage();

  Report report;
  try {
    perfbench::make_dirs(options.work_dir);
    const bool ingest = options.workload.rfind("ingest_", 0) == 0;
    if (options.workload == "ingest_inorder" || options.workload == "ingest_reordered") {
      perfbench::run_ingest(options, options.workload == "ingest_reordered", report);
    } else if (options.workload == "survey_batch") {
      perfbench::run_survey_batch(options, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
      return usage();
    }
    // Every ledger row gets a value: the other path's layers are probed on
    // a small companion input.
    if (options.trace) {
      if (ingest) {
        perfbench::probe_survey_companion(options, report);
      } else {
        perfbench::probe_ingest_companion(options, report);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) report.fail("non-finite metric " + m.name);
  }
  const double failed_ratio =
      report.attempted > 0
          ? static_cast<double>(report.failed) / static_cast<double>(report.attempted)
          : 1.0;
  report.show("failed_ratio", failed_ratio, "ratio");

  const Json descriptor = perfbench::machine_descriptor(options, report);
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d%s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " smoke" : "");
  std::printf("machine %s\n", descriptor.dump().c_str());
  std::printf("end-to-end:\n");
  for (const perfbench::Metric& m : report.display) {
    std::printf("  %-22s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (options.trace) {
    std::printf("per-layer (%% of end-to-end wall time; '-' where the layer has no time share "
                "or is off this workload's path):\n");
    for (const perfbench::LedgerRow& row : report.ledger) {
      char share[32] = "-";
      if (row.pct_of_e2e) std::snprintf(share, sizeof share, "%.2f%%", *row.pct_of_e2e);
      std::printf("  %-38s %12.6g %-7s %9s  %s%s\n", row.metric.c_str(), row.value,
                  row.unit.c_str(), share, row.on_path ? "" : "off path: ", row.input.c_str());
    }
  }
  for (const std::string& why : report.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());

  if (options.trace && !options.ledger_path.empty()) {
    try {
      write_ledger(options, report, descriptor);
      std::printf("ledger written to %s\n", options.ledger_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  Json metrics = Json::object();
  for (const perfbench::Metric& m : report.metrics) {
    Json entry = Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  Json result = Json::object();
  result.set("correct", report.correct);
  result.set("attempted", Json::u64(report.attempted));
  result.set("failed", Json::u64(report.failed));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
