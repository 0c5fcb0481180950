// Equivalence suite for the receiver's precomputed timing-search grid.
//
// The grid caches exactly what a per-call search derives — the same tau
// sequence, the same fractional_delay references, the same energy summation
// order — so unlike the FFT convolution pair the contract here is bitwise:
// every field of every ReceiveResult must match the per-call oracle
// (tests/oracles) exactly.
#include <gtest/gtest.h>

#include "channel/environment.h"
#include "channel/impairments.h"
#include "dsp/rng.h"
#include "oracles/oracles.h"
#include "zigbee/app.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {
namespace {

void expect_identical(const ReceiveResult& a, const ReceiveResult& b) {
  EXPECT_EQ(a.shr_ok, b.shr_ok);
  EXPECT_EQ(a.phr_ok, b.phr_ok);
  EXPECT_EQ(a.psdu_complete, b.psdu_complete);
  EXPECT_EQ(a.psdu, b.psdu);
  EXPECT_EQ(a.mac.has_value(), b.mac.has_value());
  EXPECT_EQ(a.hamming_distances, b.hamming_distances);
  EXPECT_EQ(a.soft_chips, b.soft_chips);
  EXPECT_EQ(a.freq_chips, b.freq_chips);
  EXPECT_EQ(a.hard_chips, b.hard_chips);
  EXPECT_EQ(a.channel_estimate, b.channel_estimate);
  EXPECT_EQ(a.noise_variance_estimate, b.noise_variance_estimate);
  EXPECT_EQ(a.snr_estimate_db, b.snr_estimate_db);
  EXPECT_EQ(a.timing_offset_estimate, b.timing_offset_estimate);
}

TEST(TimingGridEquivalenceTest, GridReceiveIsBitIdenticalToPerCall) {
  Transmitter tx;
  const cvec wave = tx.transmit_frame(make_text_frame(0, 0));

  ReceiverConfig config;
  config.timing_recovery = true;
  const Receiver grid_receiver(config);
  const oracles::PerCallTimingReceiver percall_receiver(config);

  // Clean, offset, and offset+noise captures: the winning tau (and every
  // derived field) must agree bitwise in all of them.
  dsp::Rng rng(42);
  std::vector<cvec> captures;
  captures.push_back(wave);
  for (double offset : {0.125, 0.3125}) {
    captures.push_back(channel::apply_timing_offset(wave, offset));
  }
  {
    channel::Environment env = channel::Environment::awgn(6.0);
    env.timing_offset = 0.25;
    captures.push_back(env.propagate(wave, rng));
  }
  for (std::size_t i = 0; i < captures.size(); ++i) {
    SCOPED_TRACE("capture " + std::to_string(i));
    expect_identical(grid_receiver.receive(captures[i]),
                     percall_receiver.receive(captures[i]));
  }
}

TEST(TimingGridEquivalenceTest, GridCoversTheFullTauSequence) {
  // The estimated offset must still span the whole search range: feed
  // captures delayed by each extreme and confirm the estimate tracks them
  // (i.e. the grid didn't truncate the tau sweep).
  Transmitter tx;
  const cvec wave = tx.transmit_frame(make_text_frame(0, 0));
  ReceiverConfig config;
  config.timing_recovery = true;
  const Receiver receiver(config);
  for (double offset : {0.0625, 0.4375}) {
    const cvec delayed = channel::apply_timing_offset(wave, offset);
    const ReceiveResult result = receiver.receive(delayed);
    EXPECT_NEAR(result.timing_offset_estimate, offset, 0.0626)
        << "offset " << offset;
  }
}

}  // namespace
}  // namespace ctc::zigbee
