// Every program output is rendered by Json::dump_to, so each must parse
// back and re-dump to the very same bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "json/json.h"
#include "sentry/service.h"
#include "sentry/verdict.h"
#include "sim/telemetry.h"

namespace ctc {
namespace {

void expect_round_trip(const std::string& text) {
  EXPECT_EQ(Json::parse(text).dump(), text);
}

sentry::VerdictRecord sample_verdict() {
  sentry::VerdictRecord record;
  record.channel = 3;
  record.frame_index = 41;
  record.stream_position = std::uint64_t{1} << 40;
  record.frame_samples = 5120;
  record.frame_ok = true;
  record.points = 256;
  record.valid = true;
  record.de2 = 1.0 / 3.0;
  record.c40 = -0.0;
  record.c42 = 5e-324;
  record.is_attack = true;
  record.queue_depth = 7;
  record.dropped_before = 12;
  return record;
}

TEST(JsonEmittersTest, VerdictLineRoundTrips) {
  std::string line;
  sample_verdict().append_jsonl(line);
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  expect_round_trip(line);
}

TEST(JsonEmittersTest, VerdictWriterRefusesNonFiniteAndKeepsTheStream) {
  std::string stream;
  sample_verdict().append_jsonl(stream);
  const std::string before = stream;
  sentry::VerdictRecord broken = sample_verdict();
  broken.de2 = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(broken.append_jsonl(stream), JsonError);
  EXPECT_EQ(stream, before);
}

TEST(JsonEmittersTest, SnapshotRoundTrips) {
  sentry::SentryCounters counters;
  counters.ingested = 1000;
  counters.accepted = 900;
  counters.dropped = 100;
  counters.frames_detected = 9;
  counters.verdicts = 8;
  counters.attacks = 3;
  const std::string snapshot = counters.snapshot_json();
  expect_round_trip(snapshot);
  EXPECT_EQ(Json::parse(snapshot).at("sentry_snapshot_schema").as_int(),
            sentry::kSnapshotSchemaVersion);
}

TEST(JsonEmittersTest, TelemetryDocumentRoundTrips) {
  sim::telemetry::set_enabled(true);
  sim::telemetry::reset();
  CTC_TELEM_COUNT("round_trip", "events", 3);
  CTC_TELEM_GAUGE("round_trip", "level", 0.1);
  CTC_TELEM_HISTO("round_trip", "sizes", 1000);
  { CTC_TELEM_TIMER("round_trip", "span"); }
  const auto metrics = sim::telemetry::collect();
  sim::telemetry::reset();
  sim::telemetry::set_enabled(false);
  ASSERT_EQ(metrics.size(), 4u);
  expect_round_trip(sim::telemetry::to_json(metrics, /*include_timers=*/true,
                                            {{"bench", "a\"b\tc"},
                                             {"seed", 7}})
                        .dump());
}

TEST(JsonEmittersTest, BenchReportRoundTrips) {
  bench::Options options;
  options.json = true;
  bench::JsonReport report(options, "round_trip");
  report.set("trials", std::uint64_t{12});
  report.set("rate", 0.1);
  report.set("series", std::vector<double>{1.0 / 3.0, -2.5, 1e300});
  report.set("label", "tab\there \"quoted\"");
  testing::internal::CaptureStdout();
  report.print();
  std::string line = testing::internal::GetCapturedStdout();
  ASSERT_FALSE(line.empty());
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  expect_round_trip(line);
}

}  // namespace
}  // namespace ctc
