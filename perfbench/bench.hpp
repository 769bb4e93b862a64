// Shared pieces of the end-to-end benchmark: run options, clocks, the
// result a workload fills in, and the per-layer ledger rows the traced run
// writes out.
//
// Every workload follows one shape. Set-up (input rendering plus the
// construction of the system under test) runs several times and reports
// its median as setup_s. After one untimed warm-up repetition the peak-RSS
// mark is reset, and timed repetitions run until the measurement window
// closes; each end-to-end metric is the median over repetitions.
// Every repetition's outputs are checked; a failed check marks the run
// incorrect and counts its items as failed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <streambuf>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Tiny inputs: every workload finishes in well under a second and still
  /// runs every check and reports every metric.
  bool smoke{false};
  /// Directory for files the workloads write (checkpoints); inside the
  /// checkout.
  std::string work_dir{".bench_build/work"};
  /// Where the traced run writes its ledger (JSONL); empty skips the file.
  std::string ledger_path{};
};

/// One reported number.
struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// One row of the per-layer ledger.
struct LedgerRow {
  std::string metric;
  double value{0.0};
  std::string unit;
  /// Share of the workload's end-to-end wall time, when the layer has a
  /// time cost on this workload's path.
  std::optional<double> pct_of_e2e;
  /// False when the workload's own path skips the layer and the value
  /// comes from the companion input instead.
  bool on_path{true};
  /// Which input the value was measured on.
  std::string input;
};

struct Report {
  bool correct{true};
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// The metrics of the final JSON line.
  std::vector<Metric> metrics;
  /// The end-to-end block under the per-path names (arrivals_per_s, ...).
  std::vector<Metric> display;
  std::vector<LedgerRow> ledger;
  std::vector<std::string> failures;
  /// Thread count the workload's load ran on (generator + shards/workers).
  std::size_t threads{0};
  std::string checkpoint_fs{"none"};

  void fail(const std::string& why);
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void show(std::string name, double value, std::string unit) {
    display.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// A per-layer metric: reported in the JSON line and in the ledger.
  void layer(const std::string& name, double value, const std::string& unit,
             std::optional<double> pct, bool on_path, const std::string& input);
};

// ------------------------------------------------------------- clocks
double wall_s();
double process_cpu_s();
double thread_cpu_s();
/// Restarts the peak-RSS high-water mark from the current resident set, so
/// peak_rss_mb() covers only what runs after the call (the timed
/// repetitions, not set-up).
void reset_peak_rss();
double peak_rss_mb();

double median(std::vector<double> values);

/// Runs `rep` at least `min_reps` times and until `seconds` of wall time
/// have passed since the first call.
void repeat_for(double seconds, int min_reps, const std::function<void()>& rep);

/// Times set-up across a whole run. `sample` rebuilds the workload's input
/// in place (rendering plus the construction of the system under test)
/// and returns the seconds that took. The first window of samples builds
/// the input; then a short window runs between timed repetitions every
/// couple of seconds, and setup_s is the median of those: set-up takes
/// milliseconds and the host's speed drifts over seconds, so samples
/// spread over the run, all taken in the same warmed-up process, vary
/// less from run to run than a burst at its start.
class SetupClock {
 public:
  SetupClock(const Options& options, std::function<double()> sample);
  /// Runs a window of samples when one is due; the first call always does.
  void tick();
  /// The median of the windows between repetitions, or of the first
  /// window when the run had none (smoke and traced runs).
  double median_s() const { return median(between_.empty() ? first_ : between_); }
  /// peak_rss_mb() since the last reset_peak_rss(), leaving out the
  /// windows run between timed repetitions.
  double peak_rss_mb() const;

 private:
  std::function<double()> sample_;
  bool smoke_;
  double last_window_{-1.0};
  double peak_mb_{0.0};
  std::vector<double> first_;
  std::vector<double> between_;
};

/// CPUs this process may run on.
std::size_t cpu_count();
/// Consumer shards or survey workers: one CPU stays with the generator.
std::size_t load_threads();

/// "tmpfs" or "disk" for the filesystem holding `dir`.
std::string filesystem_kind(const std::string& dir);

/// Creates `dir` (and parents); throws on failure.
void make_dirs(const std::string& dir);

/// A write-only stream buffer that keeps an FNV-1a 64 digest and a byte
/// count of everything written: canonical output is checked without
/// touching disk.
class DigestBuf final : public std::streambuf {
 public:
  std::uint64_t digest() const { return hash_; }
  std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  std::uint64_t hash_{0xcbf29ce484222325ull};
  std::uint64_t bytes_{0};
};

/// The machine descriptor stamped on every result.
reorder::report::Json machine_descriptor(const Options& options, const Report& report);

// ------------------------------------------------------------ workloads
void run_ingest(const Options& options, bool reordered, Report& report);
void run_survey_batch(const Options& options, Report& report);

/// Per-layer probes of each path on a small companion input, for traced
/// runs of workloads on the other path (every ledger row gets a value).
void probe_ingest_companion(const Options& options, Report& report);
void probe_survey_companion(const Options& options, Report& report);

}  // namespace perfbench
