#include "metrics/pair_metrics.hpp"

#include "report/sinks.hpp"

namespace reorder::metrics {

// ------------------------------------------------------- PairRateMetric

void PairRateMetric::observe_measurement(const core::MeasurementEvent& e) {
  if (!e.result.admissible) return;
  forward_ += e.result.forward;
  reverse_ += e.result.reverse;
}

std::unique_ptr<Metric> PairRateMetric::snapshot() const {
  return std::make_unique<PairRateMetric>(*this);
}

void PairRateMetric::merge(const Metric& other) {
  const auto& o = expect<PairRateMetric>(other, kName);
  forward_ += o.forward_;
  reverse_ += o.reverse_;
}

void PairRateMetric::write_json(report::JsonWriter& w) const {
  // The canonical count rendering (shared with the `measurement` JSONL
  // records), plus the derived rate for snapshot consumers.
  w.begin_object().key("fwd");
  report::write_json(w, forward_, forward_.rate());
  w.key("rev");
  report::write_json(w, reverse_, reverse_.rate());
  w.end_object();
}

void PairRateMetric::from_json(const report::Json& j) {
  forward_ = report::estimate_from_json(j.at("fwd"));
  reverse_ = report::estimate_from_json(j.at("rev"));
}

// ----------------------------------------------------- RateSeriesMetric

void RateSeriesMetric::observe_measurement(const core::MeasurementEvent& e) {
  if (!e.result.admissible) return;
  if (const auto rate = e.result.forward.rate()) forward_.push_back(*rate);
  if (const auto rate = e.result.reverse.rate()) reverse_.push_back(*rate);
}

std::unique_ptr<Metric> RateSeriesMetric::snapshot() const {
  return std::make_unique<RateSeriesMetric>(*this);
}

void RateSeriesMetric::merge(const Metric& other) {
  const auto& o = expect<RateSeriesMetric>(other, kName);
  forward_.insert(forward_.end(), o.forward_.begin(), o.forward_.end());
  reverse_.insert(reverse_.end(), o.reverse_.begin(), o.reverse_.end());
}

void RateSeriesMetric::write_json(report::JsonWriter& w) const {
  w.begin_object().key("fwd").begin_array();
  for (const double r : forward_) w.number(r);
  w.end_array().key("rev").begin_array();
  for (const double r : reverse_) w.number(r);
  w.end_array().end_object();
}

void RateSeriesMetric::from_json(const report::Json& j) {
  forward_.clear();
  reverse_.clear();
  for (const auto& r : j.at("fwd").items()) forward_.push_back(r.as_double());
  for (const auto& r : j.at("rev").items()) reverse_.push_back(r.as_double());
}

// ----------------------------------------------------- TimeDomainMetric

void TimeDomainMetric::observe(const core::SampleEvent& e) {
  profile_.add(e.sample.gap, e.sample.forward);
}

std::unique_ptr<Metric> TimeDomainMetric::snapshot() const {
  return std::make_unique<TimeDomainMetric>(*this);
}

void TimeDomainMetric::merge(const Metric& other) {
  profile_.merge(expect<TimeDomainMetric>(other, kName).profile_);
}

void TimeDomainMetric::write_json(report::JsonWriter& w) const {
  w.begin_object().key("points").begin_array();
  for (const auto& p : profile_.points()) {
    w.begin_object()
        .key("gap_ns").number(p.gap.ns())
        .key("in_order").number(p.estimate.in_order)
        .key("reordered").number(p.estimate.reordered)
        .key("ambiguous").number(p.estimate.ambiguous)
        .key("lost").number(p.estimate.lost);
    if (const auto rate = p.estimate.rate()) w.key("rate").number(*rate);
    w.end_object();
  }
  w.end_array().end_object();
}

void TimeDomainMetric::from_json(const report::Json& j) {
  profile_ = core::TimeDomainProfile{};
  for (const auto& point : j.at("points").items()) {
    profile_.add(util::Duration::nanos(point.at("gap_ns").as_int()),
                 report::estimate_from_json(point));
  }
}

// ------------------------------------------------------- RateEcdfMetric

void RateEcdfMetric::observe_measurement(const core::MeasurementEvent& e) {
  if (!e.result.admissible) return;
  if (const auto rate = e.result.forward.rate()) forward_.add(*rate);
}

std::unique_ptr<Metric> RateEcdfMetric::snapshot() const {
  return std::make_unique<RateEcdfMetric>(*this);
}

void RateEcdfMetric::merge(const Metric& other) {
  forward_.merge(expect<RateEcdfMetric>(other, kName).forward_);
}

void RateEcdfMetric::write_json(report::JsonWriter& w) const {
  w.begin_object().key("count").number(forward_.count());
  if (!forward_.empty()) {
    w.key("min").number(forward_.min())
        .key("p50").number(forward_.quantile(0.5))
        .key("p90").number(forward_.quantile(0.9))
        .key("max").number(forward_.max());
  }
  // The full sample multiset, sorted — lossless (an Ecdf's queries see
  // only the sorted multiset) and a pure function of the accumulated
  // state however the stream was split across shards.
  w.key("samples").begin_array();
  for (const double r : forward_.sorted()) w.number(r);
  w.end_array().end_object();
}

void RateEcdfMetric::from_json(const report::Json& j) {
  forward_ = stats::Ecdf{};
  for (const auto& r : j.at("samples").items()) forward_.add(r.as_double());
}

// ----------------------------------------------- LatencyHistogramMetric

LatencyHistogramMetric::LatencyHistogramMetric(double lo_us, double hi_us, std::size_t bins)
    : histogram_{lo_us, hi_us, bins} {}

void LatencyHistogramMetric::observe(const core::SampleEvent& e) {
  histogram_.add(static_cast<double>((e.sample.completed - e.sample.started).ns()) / 1e3);
}

std::unique_ptr<Metric> LatencyHistogramMetric::snapshot() const {
  return std::make_unique<LatencyHistogramMetric>(*this);
}

void LatencyHistogramMetric::merge(const Metric& other) {
  histogram_.merge(expect<LatencyHistogramMetric>(other, kName).histogram_);
}

void LatencyHistogramMetric::write_json(report::JsonWriter& w) const {
  w.begin_object()
      .key("count").number(histogram_.count())
      .key("underflow").number(histogram_.underflow())
      .key("overflow").number(histogram_.overflow())
      // Binning configuration + per-bin indices make the rendering
      // lossless (bin edges alone would need a fragile float inversion
      // to restore).
      .key("lo").number(histogram_.lo())
      .key("hi").number(histogram_.hi())
      .key("nbins").number(histogram_.bins())
      .key("bins").begin_array();
  for (std::size_t i = 0; i < histogram_.bins(); ++i) {
    if (histogram_.bin_count(i) == 0) continue;
    w.begin_object()
        .key("i").number(i)
        .key("lo_us").number(histogram_.bin_lo(i))
        .key("count").number(histogram_.bin_count(i))
        .end_object();
  }
  w.end_array().end_object();
}

void LatencyHistogramMetric::from_json(const report::Json& j) {
  histogram_ = stats::Histogram{j.at("lo").as_double(), j.at("hi").as_double(),
                                static_cast<std::size_t>(j.at("nbins").as_int())};
  histogram_.add_underflow(j.at("underflow").as_int());
  histogram_.add_overflow(j.at("overflow").as_int());
  for (const auto& bin : j.at("bins").items()) {
    histogram_.add_bin(static_cast<std::size_t>(bin.at("i").as_int()),
                       bin.at("count").as_int());
  }
}

// ------------------------------------------------------- LateTimeMetric

void LateTimeMetric::observe(const core::SampleEvent& e) {
  if (e.sample.forward != core::Ordering::kReordered &&
      e.sample.reverse != core::Ordering::kReordered) {
    return;
  }
  const std::int64_t ns = (e.sample.completed - e.sample.started).ns();
  sketch_.add(ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
}

std::unique_ptr<Metric> LateTimeMetric::snapshot() const {
  return std::make_unique<LateTimeMetric>(*this);
}

void LateTimeMetric::merge(const Metric& other) {
  sketch_.merge(expect<LateTimeMetric>(other, kName).sketch_);
}

void LateTimeMetric::write_json(report::JsonWriter& w) const { sketch_.write_json(w); }

void LateTimeMetric::from_json(const report::Json& j) { sketch_.from_json(j); }

}  // namespace reorder::metrics
