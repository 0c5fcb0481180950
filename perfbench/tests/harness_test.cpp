// Unit tests of the benchmark's own arithmetic: the tail-percentile rule,
// span self times and reconciliation, and the ground-truth matchers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"
#include "truth.h"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(TailPercentile, KeepsP99WhenTenSamplesLieBeyondIt) {
  // n = 1000: rank ceil(990) = 990, beyond it 10 samples.
  std::vector<double> values = one_to(1000);
  std::reverse(values.begin(), values.end());  // order must not matter
  const TailPercentile tail = tail_percentile(values, 99.0);
  ASSERT_TRUE(tail.ok);
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_DOUBLE_EQ(tail.value, 990.0);
  EXPECT_EQ(tail.samples, 1000u);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, LowersThePercentileUntilTenLieBeyond) {
  // n = 500: p99 would leave 5 beyond; the highest rank with 10 beyond is
  // 490, the 98th percentile.
  const TailPercentile tail = tail_percentile(one_to(500), 99.0);
  ASSERT_TRUE(tail.ok);
  EXPECT_DOUBLE_EQ(tail.percentile, 98.0);
  EXPECT_DOUBLE_EQ(tail.value, 490.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, FailsWithTenOrFewerSamples) {
  EXPECT_FALSE(tail_percentile(one_to(10), 99.0).ok);
  EXPECT_FALSE(tail_percentile({}, 50.0).ok);
  const TailPercentile tail = tail_percentile(one_to(11), 99.0);
  ASSERT_TRUE(tail.ok);
  EXPECT_DOUBLE_EQ(tail.value, 1.0);
  EXPECT_EQ(tail.beyond, 10u);
}

TEST(TailPercentile, MedianMatchesTheUsualDefinition) {
  EXPECT_DOUBLE_EQ(median(one_to(5)), 3.0);
  EXPECT_DOUBLE_EQ(median(one_to(4)), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

Span make_span(const char* name, std::uint32_t parent, std::int64_t start,
               std::int64_t end) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTime, SubtractsTheChildrenCoverage) {
  const std::vector<Span> spans = {
      make_span("bench.root", kNoParent, 0, 100),
      make_span("attack.emulate", 0, 10, 60),
      make_span("dsp.upsample", 1, 10, 20),
      make_span("dsp.decimate", 1, 50, 60),
      make_span("zigbee.rx", 0, 70, 90),
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{30, 30, 10, 10, 20}));
  const Reconciliation r = reconcile(spans);
  EXPECT_EQ(r.total_ns, 100);
  EXPECT_EQ(r.residual_ns, 30);
  EXPECT_EQ(r.attributed_ns, 70);
  EXPECT_EQ(r.layer_self_ns.at("attack"), 30);
  EXPECT_EQ(r.layer_self_ns.at("dsp"), 20);
  EXPECT_DOUBLE_EQ(r.gap_ratio(), 0.0);
  EXPECT_TRUE(r.ok(1e-3));
}

TEST(SelfTime, CountsOverlappingChildrenOnceAndClipsToTheParent) {
  const std::vector<Span> spans = {
      make_span("bench.root", kNoParent, 0, 100),
      make_span("sim.a", 0, 10, 50),
      make_span("sim.b", 0, 30, 70),
      make_span("sim.c", 0, 90, 120),  // runs past the parent's end
  };
  EXPECT_EQ(self_times(spans)[0], 100 - 60 - 10);
  // Overlapping siblings double-count 20 ns and c overruns by 20 ns: the
  // reconciliation must notice.
  const Reconciliation r = reconcile(spans);
  EXPECT_EQ(r.attributed_ns + r.residual_ns - r.total_ns, 40);
  EXPECT_FALSE(r.ok(1e-3));
}

TEST(SpanRecorder, NestsScopedSpansAndSkipsWhenDisabled) {
  SpanRecorder rec(true);
  {
    ScopedSpan outer(rec, "bench.root", 7);
    ScopedSpan inner(rec, "zigbee.rx", 8);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].parent, kNoParent);
  EXPECT_EQ(rec.spans()[1].parent, 0u);
  EXPECT_EQ(rec.spans()[1].item, 8u);
  EXPECT_TRUE(rec.balanced());
  EXPECT_TRUE(reconcile(rec.spans()).ok(1e-3));
  const auto totals = totals_by_name(rec.spans());
  EXPECT_EQ(totals.at("zigbee.rx").count, 1u);

  SpanRecorder off(false);
  { ScopedSpan span(off, "bench.root"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(SpanLayer, IsTheTextBeforeTheFirstDot) {
  EXPECT_EQ(span_layer("sim.link.prime"), "sim");
  EXPECT_EQ(span_layer("bench"), "bench");
}

TEST(Verdicts, ParsesPositionAndClass) {
  const std::string jsonl =
      "{\"verdict_schema\":1,\"channel\":0,\"frame_index\":0,\"stream_pos\":123,"
      "\"is_attack\":false,\"x\":1}\n"
      "{\"stream_pos\":456,\"is_attack\":true}\n";
  std::vector<ObservedVerdict> verdicts;
  ASSERT_TRUE(parse_verdicts(jsonl, verdicts));
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_EQ(verdicts[0].position, 123u);
  EXPECT_FALSE(verdicts[0].is_attack);
  EXPECT_EQ(verdicts[1].position, 456u);
  EXPECT_TRUE(verdicts[1].is_attack);
  std::vector<ObservedVerdict> broken;
  EXPECT_FALSE(parse_verdicts("{\"stream_pos\":1}\n", broken));
}

TEST(Verdicts, MatchesEveryFrameOnceAndCountsEachFailureKind) {
  const std::vector<ExpectedFrame> frames = {
      {100, false}, {200, false}, {300, true}, {400, false}};
  const std::vector<ObservedVerdict> verdicts = {
      {100, false},  // matched
      {200, true},   // matched, wrong class
      {200, true},   // a second verdict for frame 200
      {201, false},  // one sample off a frame: at no frame
      {400, false},  // matched; frame 300 got nothing
  };
  const MatchResult m = match_verdicts(frames, verdicts);
  EXPECT_EQ(m.expected, 4u);
  EXPECT_EQ(m.matched, 3u);
  EXPECT_EQ(m.wrong, 1u);
  EXPECT_EQ(m.duplicate, 1u);
  EXPECT_EQ(m.unexpected, 1u);
  EXPECT_EQ(m.missing, 1u);
  EXPECT_EQ(m.errors(), 2u);
  EXPECT_FALSE(m.structurally_ok());

  const std::vector<ObservedVerdict> all = {
      {100, false}, {200, false}, {300, true}, {400, false}};
  const MatchResult exact = match_verdicts(frames, all);
  EXPECT_EQ(exact.errors(), 0u);
  EXPECT_TRUE(exact.structurally_ok());
}

TEST(Trials, TallyCountsMissingAndWrongVerdicts) {
  const TrialTally attack = tally_trials(8, 7, 6, true);
  EXPECT_EQ(attack.no_verdict, 1u);
  EXPECT_EQ(attack.wrong, 1u);
  EXPECT_EQ(attack.errors(), 2u);
  const TrialTally benign = tally_trials(8, 8, 1, false);
  EXPECT_EQ(benign.no_verdict, 0u);
  EXPECT_EQ(benign.wrong, 1u);
}

TEST(Digest, IsOrderSensitive) {
  Digest a;
  a.u64(1);
  a.u64(2);
  Digest b;
  b.u64(2);
  b.u64(1);
  EXPECT_NE(a.value(), b.value());
  Digest c;
  c.u64(1);
  c.u64(2);
  EXPECT_EQ(a.value(), c.value());
}

}  // namespace
}  // namespace perfbench
