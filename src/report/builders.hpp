// Report builders for the paper's evaluation artifacts (§IV). Each
// builder owns the data one figure/table family is derived from and
// renders it two ways: an aligned human table (Table) and a JSONL record
// stream (one {"type":"row",...} object per table row, then one
// {"type":"summary",...} object). Benches whose table fits a builder
// feed it and print; six (ablation_table, fig6_timeseries, ipid_survey,
// pairdiff_table, related_work_bennett, related_work_paxson) still build
// some of their own row or summary records.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/ground_truth.hpp"
#include "core/metrics.hpp"
#include "metrics/engine.hpp"
#include "report/jsonl.hpp"
#include "report/table.hpp"
#include "stats/ecdf.hpp"

namespace reorder::report {

/// Figure-5 family: the CDF of per-path reordering rates, forward and
/// reverse, evaluated at fixed thresholds.
class RateCdfReport {
 public:
  explicit RateCdfReport(std::vector<double> thresholds) : thresholds_{std::move(thresholds)} {}

  /// Records one measured path. Pass the pooled per-path rates; a path
  /// with no usable samples in a direction contributes rate 0 there (it
  /// was measured, not absent — matching the paper's per-path pooling).
  void add_path(double forward_rate, double reverse_rate);

  /// Records one measured path straight from an engine snapshot, pooling
  /// the named tests' aggregates (the paper's per-path summary). With an
  /// empty `tests`, pools every test measured against the target.
  void add_target(const metrics::MetricEngine& engine, const std::string& target,
                  const std::vector<std::string>& tests = {});

  std::size_t paths() const { return paths_; }
  int paths_with_reordering() const { return paths_with_reordering_; }
  const stats::Ecdf& forward() const { return forward_; }
  const stats::Ecdf& reverse() const { return reverse_; }

  Table table() const;
  void emit_jsonl(JsonlWriter& out) const;

 private:
  std::vector<double> thresholds_;
  stats::Ecdf forward_;
  stats::Ecdf reverse_;
  std::size_t paths_{0};
  int paths_with_reordering_{0};
};

/// Figure-7 family: reordering rate vs inter-packet gap (the §IV-C
/// time-domain profile).
class TimeDomainReport {
 public:
  explicit TimeDomainReport(core::TimeDomainProfile profile, int table_every_us = 1)
      : profile_{std::move(profile)}, table_every_us_{table_every_us} {}

  const core::TimeDomainProfile& profile() const { return profile_; }

  /// gap(us) | samples | reordered | rate — decimated to every
  /// `table_every_us` microseconds for readability; JSONL is never
  /// decimated.
  Table table() const;
  void emit_jsonl(JsonlWriter& out) const;

 private:
  core::TimeDomainProfile profile_;
  int table_every_us_;
};

/// §IV-B family: pairwise test-consistency percentages (the fraction of
/// hosts where the paired-difference null hypothesis survived).
class PairDifferenceReport {
 public:
  struct Pair {
    std::string test_a;
    std::string test_b;
    int fwd_supported{0};
    int fwd_total{0};
    int rev_supported{0};
    int rev_total{0};
  };

  /// Accumulates one host-level paired verdict for (a, b).
  void add(const std::string& test_a, const std::string& test_b, bool forward,
           bool null_supported);

  /// Runs the engine's paired comparison of (a, b) on one target and
  /// records the verdict. Returns false (recording nothing) when fewer
  /// than two usable pairs exist.
  bool add_compare(const metrics::MetricEngine& engine, const std::string& target,
                   const std::string& test_a, const std::string& test_b, bool forward,
                   double confidence = 0.999);

  const std::vector<Pair>& pairs() const { return pairs_; }

  /// test pair | fwd null-ok % | rev null-ok % ("-" with no data).
  Table table() const;
  void emit_jsonl(JsonlWriter& out) const;

 private:
  Pair& pair(const std::string& test_a, const std::string& test_b);
  std::vector<Pair> pairs_;  // first-seen order
};

/// §IV-A family: the controlled ground-truth validation grid.
class ValidationReport {
 public:
  struct Row {
    std::string test;
    std::optional<double> fwd_p;  ///< configured forward swap rate
    std::optional<double> rev_p;
    core::TruthComparison cmp;
    bool admissible{true};
  };

  void add(Row row);
  const std::vector<Row>& rows() const { return rows_; }

  struct Summary {
    int tests_run{0};
    int fwd_discrepant_tests{0};
    int rev_discrepant_tests{0};
    long total_samples{0};
    long mismatched_samples{0};
    /// Fraction of verified samples the traces confirmed; empty with none.
    std::optional<double> confirmed_fraction() const;
  };
  /// Recomputed over the accumulated rows. `samples_per_two_way_test`
  /// reproduces the paper's accounting: two-way tests contribute
  /// 2 x samples to the denominator, one-way tests their verified count.
  Summary summary(int samples_per_two_way_test) const;

  Table table() const;
  void emit_jsonl(JsonlWriter& out, int samples_per_two_way_test) const;

 private:
  std::vector<Row> rows_;
};

}  // namespace reorder::report
