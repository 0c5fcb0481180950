// Shared plumbing of the benchmark workloads: options, the outcome every
// workload returns, the metric catalogue, and set-up timing.
#pragma once

#include <algorithm>
#include <cstring>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace ctc::sim::telemetry {
struct MetricValue;
}  // namespace ctc::sim::telemetry

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
  std::size_t threads = 4; ///< min(hardware threads, 4)
};

/// What one workload run reports.
struct Outcome {
  bool correct = true;
  std::vector<std::string> failures;  ///< why `correct` is false
  std::uint64_t attempted = 0;        ///< frames or trials owed a verdict
  std::uint64_t failed = 0;           ///< of those: no verdict or a wrong one
  std::map<std::string, double> metrics;  ///< by name; units live in the catalogue
  std::vector<std::string> notes;     ///< printed as "# ..." lines

  /// Records a failed output check (the run then reports correct=false).
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value);
  void note(const std::string& line) { notes.push_back(line); }
};

/// Name and unit of every metric the benchmark reports, in the order of
/// BENCHMARK.json. End-to-end metrics come from untraced runs, per-layer
/// metrics from traced ones.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Peak resident set of this process (getrusage max RSS), MB.
double peak_rss_mb();

/// Runs `make` `reps` times, keeping the last result; stores the median
/// wall time of one set-up in `median_s`.
template <class Make>
auto timed_setup(int reps, double& median_s, Make&& make) {
  std::vector<double> seconds;
  decltype(make()) state;
  for (int r = 0; r < reps; ++r) {
    state = nullptr;  // release the previous build before timing the next
    const std::int64_t start = now_ns();
    state = make();
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  median_s = median(seconds);
  return state;
}

/// Throughput of a closed loop, robust to short disturbances: the rounds
/// are cut into kSlices runs of consecutive rounds and the median of the
/// slices' rates is reported.
class SliceRates {
 public:
  static constexpr std::size_t kSlices = 10;
  void add(double work, double seconds) { rounds_.push_back({work, seconds}); }
  /// Median over slices of work / seconds; notes the slowest and fastest.
  double median_rate(Outcome& outcome, const char* name) const;

 private:
  struct Round {
    double work;
    double seconds;
  };
  std::vector<Round> rounds_;
};

/// Sum of one telemetry metric's cell over a collect() result.
double telemetry_sum(const std::vector<ctc::sim::telemetry::MetricValue>& metrics,
                     std::string_view stage, std::string_view name);
double telemetry_count(const std::vector<ctc::sim::telemetry::MetricValue>& metrics,
                       std::string_view stage, std::string_view name);

/// Mean duration (ns) of the spans named `name`; 0 when there are none.
double mean_ns(const std::map<std::string, NameTotals>& totals, const char* name);

/// Sets metric `name` to the tail of `values` by the rule of
/// tail_percentile (p99, or lower so that ten samples lie beyond it) and
/// notes the percentile and sample count; fails the run when there are too
/// few samples.
void report_tail(const std::vector<double>& values, const std::string& name,
                 Outcome& outcome);

/// Sets sim.engine.trial_p50_us / _p99_us from the spans named `name`, one
/// per trial replayed serially, and notes the p99 sample count.
void report_trial_times(const std::map<std::string, NameTotals>& totals,
                        const char* name, Outcome& outcome);

/// Reconciles the traced spans, sets the per-layer self shares and the
/// residual, checks the tolerance, and writes the spans out.
void finish_trace(const SpanRecorder& recorder, const Options& options,
                  Outcome& outcome);

/// Relative tolerance of the trace reconciliation.
inline constexpr double kReconcileTolerance = 1e-3;

/// Bitwise equality of two arrays of trivially copyable values.
template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](const T& x, const T& y) {
           return std::memcmp(&x, &y, sizeof(T)) == 0;
         });
}

Outcome run_trial_fresh(const Options& options);
Outcome run_mesh_repeat(const Options& options);
Outcome run_sentry_air(const Options& options);

}  // namespace perfbench
