#include "zigbee/csma.h"

#include <gtest/gtest.h>

#include "dsp/require.h"
#include "dsp/rng.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {
namespace {

TEST(EnergyDetectTest, MeasuresAveragePower) {
  const cvec window = {{2.0, 0.0}, {0.0, 2.0}};
  EXPECT_DOUBLE_EQ(energy_detect(window), 4.0);
  EXPECT_THROW(energy_detect(cvec{}), ContractError);
}

TEST(EnergyDetectTest, BusyVsIdleDecision) {
  dsp::Rng rng(260);
  cvec idle(128);
  for (auto& x : idle) x = rng.complex_gaussian(0.001);  // -30 dB noise
  Transmitter tx;
  MacFrame frame;
  frame.payload = {1, 2, 3};
  const cvec active = tx.transmit_frame(frame);  // unit power
  const double threshold = 0.1;
  EXPECT_FALSE(channel_busy(idle, threshold));
  EXPECT_TRUE(channel_busy(std::span<const cplx>(active).subspan(100, 128), threshold));
  EXPECT_THROW(channel_busy(idle, 0.0), ContractError);
}

TEST(CsmaTest, IdleChannelGrantsQuickly) {
  dsp::Rng rng(261);
  const auto result = csma_ca([](double) { return false; }, rng);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.backoffs, 1u);
  // First backoff draws 0..7 slots of 320 us.
  EXPECT_LE(result.delay_us, 7 * 320.0);
}

TEST(CsmaTest, AlwaysBusyChannelFails) {
  dsp::Rng rng(262);
  const auto result = csma_ca([](double) { return true; }, rng);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.backoffs, kMaxCsmaBackoffs + 1);
}

TEST(CsmaTest, WaitsOutABusyBurst) {
  // Busy for the first 3 ms; with up to 5 attempts and growing backoff the
  // sender statistically drains past the burst.
  dsp::Rng rng(263);
  int successes = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto result =
        csma_ca(interval_oracle({{0.0, 3000.0}}), rng);
    if (result.success) {
      EXPECT_GE(result.delay_us, 3000.0);
      ++successes;
    }
  }
  EXPECT_GT(successes, 100);
}

TEST(CsmaTest, BackoffGrowsWithCongestion) {
  // Expected delay on failure grows with each attempt (BE escalation).
  dsp::Rng rng(264);
  double total_delay = 0.0;
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    total_delay += csma_ca([](double) { return true; }, rng).delay_us;
  }
  // Sum of expected slots: (2^3-1)/2 + (2^4-1)/2 + (2^5-1)/2 *3 = 3.5+7.5+15.5*3
  const double expected_slots = 3.5 + 7.5 + 15.5 * 3;
  EXPECT_NEAR(total_delay / trials, expected_slots * 320.0,
              0.15 * expected_slots * 320.0);
}

TEST(CsmaTest, RespectsConfigBounds) {
  dsp::Rng rng(265);
  CsmaConfig config;
  config.mac_min_be = 6;
  config.mac_max_be = 5;
  EXPECT_THROW(csma_ca([](double) { return false; }, rng, config), ContractError);
}

TEST(IntervalOracleTest, HalfOpenSemantics) {
  const auto oracle = interval_oracle({{10.0, 20.0}, {30.0, 40.0}});
  EXPECT_FALSE(oracle(9.9));
  EXPECT_TRUE(oracle(10.0));
  EXPECT_TRUE(oracle(19.9));
  EXPECT_FALSE(oracle(20.0));
  EXPECT_TRUE(oracle(35.0));
  EXPECT_FALSE(oracle(50.0));
}

}  // namespace
}  // namespace ctc::zigbee
