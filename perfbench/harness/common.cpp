#include "common.h"

#include <sys/resource.h>

#include <cstdio>

#include "sim/telemetry.h"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

void Outcome::set(const std::string& name, double value) { metrics[name] = value; }

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"trials_per_s", "1/s"},
      {"msamples_per_s", "Msample/s"},
      {"verdict_latency_p50_ms", "ms"},
      {"verdict_ok_ratio", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"attack.emulate_ms_per_frame", "ms"},
      {"attack.select_ms_per_frame", "ms"},
      {"attack.scale_ms_per_frame", "ms"},
      {"attack.symbols_ms_per_frame", "ms"},
      {"attack.lut_hit_ratio", "ratio"},
      {"dsp.upsample_ms_per_frame", "ms"},
      {"dsp.decimate_ms_per_frame", "ms"},
      {"zigbee.tx_us_per_frame", "us"},
      {"sim.link.prime_s", "s"},
      {"sim.engine.serial_fraction", "ratio"},
      {"sim.link.cache_hit_ratio", "ratio"},
      {"sim.link.cache_entries", "count"},
      {"sim.link.cache_mb", "MB"},
      {"sim.engine.fanout_s", "s"},
      {"sim.engine.busy_ratio", "ratio"},
      {"sim.engine.trial_p50_us", "us"},
      {"sim.engine.trial_p99_us", "us"},
      {"channel.propagate_us_per_sensor", "us"},
      {"zigbee.rx_us_per_frame", "us"},
      {"zigbee.rx_frame_ok_ratio", "ratio"},
      {"defense.classify_us_per_frame", "us"},
      {"defense.usable_ratio", "ratio"},
      {"mesh.observe_us_per_trial", "us"},
      {"mesh.fuse_us_per_trial", "us"},
      {"mesh.localize_us_per_trial", "us"},
      {"mesh.localize_converged_ratio", "ratio"},
      {"sentry.ingest_ns_per_sample", "ns"},
      {"sentry.push_ns_per_sample", "ns"},
      {"sentry.scan_ns_per_sample", "ns"},
      {"sentry.write_ns_per_verdict", "ns"},
      {"sentry.unattributed_ns_per_sample", "ns"},
      {"sentry.sync_miss_ratio", "ratio"},
      {"sentry.drain_turns_per_msample", "1/Msample"},
      {"sentry.decode_us_per_frame", "us"},
      {"sentry.classify_us_per_frame", "us"},
      {"sentry.verdict_latency_p99_ms", "ms"},
      {"sentry.lookahead_ms", "ms"},
      {"sentry.ring_ns_per_sample", "ns"},
      {"sentry.ring_depth_p99", "samples"},
      {"sentry.generator_lag_ms", "ms"},
      {"sentry.frames_ok_ratio", "ratio"},
      {"sentry.dropped_ratio", "ratio"},
      {"dsp.self_share", "ratio"},
      {"zigbee.self_share", "ratio"},
      {"attack.self_share", "ratio"},
      {"channel.self_share", "ratio"},
      {"defense.self_share", "ratio"},
      {"sim.self_share", "ratio"},
      {"mesh.self_share", "ratio"},
      {"sentry.self_share", "ratio"},
      {"bench.residual_share", "ratio"},
      {"bench.reconcile_gap_ratio", "ratio"},
      {"bench.trace_overhead_ratio", "ratio"},
  };
  return specs;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void report_tail(const std::vector<double>& values, const std::string& name,
                 Outcome& outcome) {
  const TailPercentile tail = tail_percentile(values, 99.0);
  outcome.check(tail.ok, "too few samples for " + name);
  outcome.set(name, tail.value);
  char line[200];
  std::snprintf(line, sizeof line, "%s: percentile %.3f over %zu samples, %zu beyond it",
                name.c_str(), tail.percentile, tail.samples, tail.beyond);
  outcome.note(line);
}

double SliceRates::median_rate(Outcome& outcome, const char* name) const {
  const std::size_t slices = std::min(kSlices, rounds_.size());
  std::vector<double> rates;
  for (std::size_t k = 0; k < slices; ++k) {
    // Slice k holds rounds [k n / slices, (k + 1) n / slices).
    double work = 0.0;
    double seconds = 0.0;
    for (std::size_t i = k * rounds_.size() / slices;
         i < (k + 1) * rounds_.size() / slices; ++i) {
      work += rounds_[i].work;
      seconds += rounds_[i].seconds;
    }
    rates.push_back(work / seconds);
  }
  const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
  char line[160];
  std::snprintf(line, sizeof line, "%s: median of %zu slices over %zu rounds (slices %.6g .. %.6g)",
                name, slices, rounds_.size(), *lo, *hi);
  outcome.note(line);
  return median(rates);
}

namespace {

const ctc::sim::telemetry::MetricValue* find_metric(
    const std::vector<ctc::sim::telemetry::MetricValue>& metrics,
    std::string_view stage, std::string_view name) {
  for (const auto& metric : metrics) {
    if (metric.stage == stage && metric.name == name) return &metric;
  }
  return nullptr;
}

}  // namespace

double telemetry_sum(const std::vector<ctc::sim::telemetry::MetricValue>& metrics,
                     std::string_view stage, std::string_view name) {
  const auto* metric = find_metric(metrics, stage, name);
  return metric == nullptr ? 0.0 : metric->cell.sum;
}

double telemetry_count(const std::vector<ctc::sim::telemetry::MetricValue>& metrics,
                       std::string_view stage, std::string_view name) {
  const auto* metric = find_metric(metrics, stage, name);
  return metric == nullptr ? 0.0 : static_cast<double>(metric->cell.count);
}

double mean_ns(const std::map<std::string, NameTotals>& totals, const char* name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.total_ns) / static_cast<double>(it->second.count);
}

void report_trial_times(const std::map<std::string, NameTotals>& totals,
                        const char* name, Outcome& outcome) {
  std::vector<double> us;
  const auto it = totals.find(name);
  if (it != totals.end()) {
    for (std::int64_t ns : it->second.durations_ns) us.push_back(static_cast<double>(ns) / 1e3);
  }
  outcome.set("sim.engine.trial_p50_us", median(us));
  report_tail(us, "sim.engine.trial_p99_us", outcome);
}

void finish_trace(const SpanRecorder& recorder, const Options& options,
                  Outcome& outcome) {
  outcome.check(recorder.balanced(), "trace: a span was left open");
  const Reconciliation r = reconcile(recorder.spans());
  outcome.check(r.total_ns > 0, "trace: no root span");
  const double total = r.total_ns > 0 ? static_cast<double>(r.total_ns) : 1.0;
  for (const char* layer : {"dsp", "zigbee", "attack", "channel", "defense",
                            "sim", "mesh", "sentry"}) {
    const auto it = r.layer_self_ns.find(layer);
    const double self = it == r.layer_self_ns.end() ? 0.0 : static_cast<double>(it->second);
    outcome.set(std::string(layer) + ".self_share", self / total);
  }
  outcome.set("bench.residual_share", static_cast<double>(r.residual_ns) / total);
  outcome.set("bench.reconcile_gap_ratio", r.gap_ratio());
  char line[200];
  std::snprintf(line, sizeof line,
                "trace: %zu spans, total %.6f s = layers %.6f s + residual "
                "%.6f s (gap %.2e, tolerance %.0e)",
                recorder.spans().size(), static_cast<double>(r.total_ns) * 1e-9,
                static_cast<double>(r.attributed_ns) * 1e-9,
                static_cast<double>(r.residual_ns) * 1e-9, r.gap_ratio(),
                kReconcileTolerance);
  outcome.note(line);
  outcome.check(r.ok(kReconcileTolerance),
                "trace: layer self times + residual do not reconcile with the total");
  if (!options.spans_path.empty()) {
    outcome.check(recorder.write_json(options.spans_path),
                  "trace: could not write " + options.spans_path);
  }
}

}  // namespace perfbench
