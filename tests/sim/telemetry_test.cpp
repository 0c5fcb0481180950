// Tests for the sim::telemetry observability layer: deterministic merge
// across thread counts, runtime gating, bucket arithmetic, and the JSON
// emitter. Each test enables the layer explicitly and restores the global
// off state so telemetry never leaks into unrelated tests.
#include "sim/telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "dsp/rng.h"
#include "sim/engine.h"

namespace ctc::sim::telemetry {
namespace {

/// Enables telemetry for the test body; restores off + clean on exit.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset();
  }
  void TearDown() override {
    reset();
    set_enabled(false);
  }
};

struct SumAggregator {
  double total = 0.0;
  void add(double value) { total += value; }
};

/// A trial that records every metric kind with values that depend on the
/// trial's RNG stream, so accumulation order differences would show up in
/// the double-valued sums.
double instrumented_trial(std::size_t /*index*/, dsp::Rng& rng) {
  const double x = rng.uniform();
  CTC_TELEM_COUNT("test", "work_items", 1 + (rng.next_u64() % 3));
  CTC_TELEM_GAUGE("test", "uniform", x);
  CTC_TELEM_HISTO("test", "scaled", static_cast<std::uint64_t>(x * 1000.0));
  CTC_TELEM_TIMER("test", "trial_span");
  return x;
}

/// Runs `trials` instrumented trials at `threads` and returns the collected
/// metrics (telemetry reset before the run so runs are comparable).
std::vector<MetricValue> run_and_collect(std::size_t threads,
                                         std::size_t trials) {
  reset();
  TrialEngine engine({/*seed=*/20190707, threads});
  engine.run<SumAggregator>(trials, instrumented_trial);
  return collect();
}

bool is_timer(const MetricValue& metric) { return metric.kind == Kind::timer; }

TEST_F(TelemetryTest, MergeIsBitIdenticalAcrossThreadCounts) {
  const auto serial = run_and_collect(1, 500);
  const auto wide = run_and_collect(8, 500);

  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].stage + "/" + serial[i].name);
    EXPECT_EQ(serial[i].stage, wide[i].stage);
    EXPECT_EQ(serial[i].name, wide[i].name);
    EXPECT_EQ(serial[i].kind, wide[i].kind);
    if (is_timer(serial[i])) continue;  // wall clock: count only
    EXPECT_EQ(serial[i].cell.count, wide[i].cell.count);
    // Bit-identical, not approximately equal: the engine commits per-trial
    // snapshots in trial-index order, so the fp accumulation order is fixed.
    EXPECT_EQ(serial[i].cell.sum, wide[i].cell.sum);
    EXPECT_EQ(serial[i].cell.min, wide[i].cell.min);
    EXPECT_EQ(serial[i].cell.max, wide[i].cell.max);
    EXPECT_EQ(serial[i].cell.buckets, wide[i].cell.buckets);
  }

  // The JSON emitter (timers excluded) must agree byte-for-byte too.
  EXPECT_EQ(to_json(serial, /*include_timers=*/false).dump(),
            to_json(wide, /*include_timers=*/false).dump());
}

TEST_F(TelemetryTest, NothingIsRecordedWhileDisabled) {
  set_enabled(false);
  CTC_TELEM_COUNT("test", "dropped", 7);
  CTC_TELEM_GAUGE("test", "dropped_gauge", 1.5);
  { CTC_TELEM_TIMER("test", "dropped_span"); }
  set_enabled(true);
  EXPECT_TRUE(collect().empty());
}

TEST_F(TelemetryTest, LapsFoldIntoOneCarriedTimerObservation) {
  // An operation split across calls: two busy laps, then an empty closing
  // span that must still report the laps' time as its one observation.
  std::uint64_t carry = 0;
  volatile double work = 0.0;
  for (int lap = 0; lap < 2; ++lap) {
    CTC_TELEM_LAP(carry);
    for (int i = 0; i < 200000; ++i) work = work + 1.0;
  }
  const std::uint64_t laps = carry;
  EXPECT_GT(laps, 0u);
  { CTC_TELEM_TIMER("test", "split_op", carry); }
  const auto metrics = collect();
  ASSERT_EQ(metrics.size(), 1u);  // a lap records nothing of its own
  EXPECT_EQ(metrics[0].kind, Kind::timer);
  EXPECT_EQ(metrics[0].cell.count, 1u);
  EXPECT_GE(metrics[0].cell.sum, static_cast<double>(laps));
  EXPECT_EQ(carry, laps);  // the timer reads the carry; the caller resets it

  // Disabled: a lap never reads the clock, so the carry stays untouched.
  set_enabled(false);
  std::uint64_t idle = 0;
  { CTC_TELEM_LAP(idle); }
  EXPECT_EQ(idle, 0u);
}

TEST_F(TelemetryTest, CollectSortsByStageThenName) {
  CTC_TELEM_COUNT("zeta", "a", 1);
  CTC_TELEM_COUNT("alpha", "b", 1);
  CTC_TELEM_COUNT("alpha", "a", 1);
  const auto metrics = collect();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].stage, "alpha");
  EXPECT_EQ(metrics[0].name, "a");
  EXPECT_EQ(metrics[1].stage, "alpha");
  EXPECT_EQ(metrics[1].name, "b");
  EXPECT_EQ(metrics[2].stage, "zeta");
  EXPECT_EQ(metrics[2].name, "a");
}

TEST_F(TelemetryTest, GaugeTracksSumMinMax) {
  CTC_TELEM_GAUGE("test", "g", 2.0);
  CTC_TELEM_GAUGE("test", "g", -1.0);
  CTC_TELEM_GAUGE("test", "g", 5.0);
  const auto metrics = collect();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].cell.count, 3u);
  EXPECT_DOUBLE_EQ(metrics[0].cell.sum, 6.0);
  EXPECT_DOUBLE_EQ(metrics[0].cell.min, -1.0);
  EXPECT_DOUBLE_EQ(metrics[0].cell.max, 5.0);
}

TEST_F(TelemetryTest, RegistrationIsIdempotentByStageAndName) {
  const MetricId a = register_metric(Kind::counter, "stage", "metric");
  const MetricId b = register_metric(Kind::counter, "stage", "metric");
  const MetricId c = register_metric(Kind::counter, "stage", "other");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TelemetryBucketsTest, Log2BucketEdges) {
  EXPECT_EQ(bucket_index(0), 0u);
  EXPECT_EQ(bucket_index(1), 1u);
  EXPECT_EQ(bucket_index(2), 2u);
  EXPECT_EQ(bucket_index(3), 2u);
  EXPECT_EQ(bucket_index(4), 3u);
  EXPECT_EQ(bucket_index(7), 3u);
  EXPECT_EQ(bucket_index(8), 4u);
  // Values past the table clamp into the last bucket.
  EXPECT_EQ(bucket_index(~std::uint64_t{0}), kHistoBuckets - 1);

  EXPECT_EQ(bucket_lower_bound(0), 0u);
  EXPECT_EQ(bucket_lower_bound(1), 1u);
  EXPECT_EQ(bucket_lower_bound(2), 2u);
  EXPECT_EQ(bucket_lower_bound(3), 4u);
  // Round trip: every bucket's lower bound indexes back to that bucket.
  for (std::size_t b = 0; b < kHistoBuckets; ++b) {
    EXPECT_EQ(bucket_index(bucket_lower_bound(b)), b) << "bucket " << b;
  }
}

TEST(TelemetryCellTest, MergeFoldsCountsSumsExtremaAndBuckets) {
  Cell a;
  a.count = 2;
  a.sum = 10.0;
  a.min = 1.0;
  a.max = 9.0;
  a.buckets[1] = 2;
  Cell b;
  b.count = 3;
  b.sum = -4.0;
  b.min = -6.0;
  b.max = 2.0;
  b.buckets[1] = 1;
  b.buckets[4] = 2;
  a.merge(b);
  EXPECT_EQ(a.count, 5u);
  EXPECT_DOUBLE_EQ(a.sum, 6.0);
  EXPECT_DOUBLE_EQ(a.min, -6.0);
  EXPECT_DOUBLE_EQ(a.max, 9.0);
  EXPECT_EQ(a.buckets[1], 3u);
  EXPECT_EQ(a.buckets[4], 2u);

  // Merging into an empty cell adopts the source's extrema (an empty cell's
  // min/max are meaningless and must not clamp the result at 0).
  Cell empty;
  Cell positive;
  positive.count = 1;
  positive.sum = positive.min = positive.max = 3.0;
  empty.merge(positive);
  EXPECT_DOUBLE_EQ(empty.min, 3.0);
  EXPECT_DOUBLE_EQ(empty.max, 3.0);
}

TEST_F(TelemetryTest, TrialScopeIsolatesAndCommitPreservesOrder) {
  // Two "trials" recorded through scopes, committed in order: the global
  // sum must fold trial 0 before trial 1.
  TrialSnapshot first, second;
  {
    TrialScope scope;
    CTC_TELEM_GAUGE("scoped", "value", 1.0);
    first = scope.capture();
  }
  {
    TrialScope scope;
    CTC_TELEM_GAUGE("scoped", "value", 2.0);
    second = scope.capture();
  }
  // Nothing reaches the accumulator until commit.
  EXPECT_TRUE(collect().empty());
  commit(std::move(first));
  commit(std::move(second));
  const auto metrics = collect();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].cell.count, 2u);
  EXPECT_DOUBLE_EQ(metrics[0].cell.sum, 3.0);
}

TEST_F(TelemetryTest, JsonShapeAndRoundTripExactDoubles) {
  CTC_TELEM_COUNT("stage_a", "events", 3);
  CTC_TELEM_GAUGE("stage_a", "level", 0.1);  // not exactly representable
  CTC_TELEM_HISTO("stage_b", "sizes", 5);
  { CTC_TELEM_TIMER("stage_b", "span"); }
  const auto metrics = collect();
  ASSERT_EQ(metrics.size(), 4u);

  const std::string with_timers =
      to_json(metrics, /*include_timers=*/true, {{"bench", "unit"}}).dump();
  const std::string without_timers =
      to_json(metrics, /*include_timers=*/false).dump();

  EXPECT_EQ(with_timers.find(R"({"telemetry_schema":1,"bench":"unit",)"), 0u);
  EXPECT_NE(with_timers.find("\"name\":\"span\""), std::string::npos);
  EXPECT_EQ(without_timers.find("\"name\":\"span\""), std::string::npos);
  EXPECT_NE(without_timers.find("\"name\":\"events\""), std::string::npos);

  // %.17g round-trips doubles exactly: the emitted gauge sum parses back to
  // the same bits that were accumulated.
  const std::string key = "\"name\":\"level\",\"kind\":\"gauge\",\"count\":1,\"sum\":";
  const std::size_t at = without_timers.find(key);
  ASSERT_NE(at, std::string::npos);
  const double parsed = std::stod(without_timers.substr(at + key.size()));
  EXPECT_EQ(parsed, 0.1);
}

TEST_F(TelemetryTest, ResetClearsAccumulatorAndThreadFrame) {
  CTC_TELEM_COUNT("test", "events", 1);
  reset();
  EXPECT_TRUE(collect().empty());
}

}  // namespace
}  // namespace ctc::sim::telemetry
