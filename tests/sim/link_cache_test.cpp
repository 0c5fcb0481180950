// Equivalence suite for sim::Link's clean-waveform memoization.
//
// The cache stores the output of a pure function (frame bytes -> synthesis
// chain), so the contract is exact: clean_waveform must be bit-identical to
// the uncached synthesis oracle (tests/oracles), and a send that fills the
// cache must be bit-identical to one that hits it, given the same RNG
// stream. The telemetry tests pin the hit/miss accounting that
// PERFORMANCE.md documents.
#include "sim/link.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsp/rng.h"
#include "oracles/oracles.h"
#include "sim/telemetry.h"
#include "zigbee/app.h"

namespace ctc::sim {
namespace {

LinkConfig link_config(LinkKind kind) {
  LinkConfig config;
  config.kind = kind;
  config.environment = channel::Environment::awgn(8.0);
  return config;
}

void expect_identical_waveforms(const cvec& a, const cvec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "sample " << i;
  }
}

void expect_identical_observations(const FrameObservation& a,
                                   const FrameObservation& b) {
  EXPECT_EQ(a.symbols_sent, b.symbols_sent);
  EXPECT_EQ(a.symbol_errors, b.symbol_errors);
  EXPECT_EQ(a.payload_match, b.payload_match);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.rx.shr_ok, b.rx.shr_ok);
  EXPECT_EQ(a.rx.phr_ok, b.rx.phr_ok);
  EXPECT_EQ(a.rx.psdu_complete, b.rx.psdu_complete);
  EXPECT_EQ(a.rx.psdu, b.rx.psdu);
  EXPECT_EQ(a.rx.soft_chips, b.rx.soft_chips);
  EXPECT_EQ(a.rx.hard_chips, b.rx.hard_chips);
  EXPECT_EQ(a.rx.channel_estimate, b.rx.channel_estimate);
  EXPECT_EQ(a.rx.snr_estimate_db, b.rx.snr_estimate_db);
}

TEST(LinkCacheTest, CleanWaveformIsBitIdenticalToUncached) {
  LinkConfig via_rf = link_config(LinkKind::emulated);
  via_rf.attack_via_rf = true;
  const std::vector<std::pair<std::string, LinkConfig>> configs = {
      {"authentic", link_config(LinkKind::authentic)},
      {"emulated", link_config(LinkKind::emulated)},
      {"emulated via RF", via_rf}};
  for (const auto& [name, config] : configs) {
    SCOPED_TRACE(name);
    const Link cached(config);
    for (unsigned index : {0u, 1u, 42u}) {
      const auto frame = zigbee::make_text_frame(index, index & 0xFF);
      // Twice through the cached link: first call fills, second call hits.
      // Both must equal the reference synthesis exactly.
      const cvec fill = cached.clean_waveform(frame);
      const cvec hit = cached.clean_waveform(frame);
      const cvec reference = oracles::clean_waveform(config, frame);
      expect_identical_waveforms(fill, reference);
      expect_identical_waveforms(hit, reference);
    }
  }
}

/// A send on a cold link (the send fills the cache) must reproduce a send on
/// a primed link (the send hits it) field for field. Noise draws consume the
/// identical RNG sequence because the clean waveform lengths match exactly.
void expect_cold_send_matches_primed(LinkKind kind,
                                     const zigbee::MacFrame& frame,
                                     std::uint64_t seed) {
  const Link cold(link_config(kind));
  const Link primed(link_config(kind));
  primed.prime(std::span<const zigbee::MacFrame>(&frame, 1));
  dsp::Rng rng_cold(seed);
  dsp::Rng rng_primed(seed);
  expect_identical_observations(cold.send(frame, rng_cold),
                                primed.send(frame, rng_primed));
}

TEST(LinkCacheTest, SendIsBitIdenticalToUncached) {
  for (unsigned index : {0u, 7u}) {
    const auto frame = zigbee::make_text_frame(index, 1);
    for (std::uint64_t seed : {11ull, 12ull, 13ull}) {
      SCOPED_TRACE("frame " + std::to_string(index) + " seed " +
                   std::to_string(seed));
      expect_cold_send_matches_primed(LinkKind::authentic, frame, seed);
    }
  }
}

TEST(LinkCacheTest, EmulatedSendIsBitIdenticalToUncached) {
  expect_cold_send_matches_primed(LinkKind::emulated,
                                  zigbee::make_text_frame(3, 3), 99);
}

/// Enables telemetry for the test body; restores off + clean on exit.
class LinkCacheTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::set_enabled(true);
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::reset();
    telemetry::set_enabled(false);
  }

  static std::uint64_t counter(const std::vector<telemetry::MetricValue>& all,
                               const std::string& name) {
    for (const auto& metric : all) {
      if (metric.stage == "link" && metric.name == name) {
        return static_cast<std::uint64_t>(metric.cell.sum);
      }
    }
    return 0;
  }
};

TEST_F(LinkCacheTelemetryTest, PrimeFillsOncePerFrameThenSendsHit) {
  const Link link(link_config(LinkKind::authentic));
  const auto frames = zigbee::make_text_workload(4);

  link.prime(frames);
  // Priming again is a no-op: every frame is already resident.
  link.prime(frames);

  dsp::Rng rng(5);
  for (const auto& frame : frames) (void)link.send(frame, rng);

  const auto metrics = telemetry::collect();
  EXPECT_EQ(counter(metrics, "waveform_cache_misses"), frames.size());
  // 4 from the second prime + 4 from the sends.
  EXPECT_EQ(counter(metrics, "waveform_cache_hits"), 2 * frames.size());
}

}  // namespace
}  // namespace ctc::sim
