// Window equivalence for Receiver::receive and the split header pass.
//
// The sentry scanner runs the receiver's header pass on SHR + PHR + 1
// samples, then hands the decode the frame's PPDU plus one sample rather
// than the largest frame's (127-byte PPDU plus one). That is only sound if
// receive() reads nothing past PPDU + 1 — clock recovery's fractional
// delay looks at most one sample ahead — and if resuming from the early
// header pass equals a one-shot decode. So every field of the result must
// be bitwise identical whichever of those windows (or any length between
// them, as a stream cut at flush leaves) it is given, one-shot or resumed,
// with whatever follows the frame in the stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "channel/awgn.h"
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

bytevec random_psdu(std::size_t bytes, dsp::Rng& rng) {
  bytevec psdu(bytes);
  for (std::uint8_t& byte : psdu) {
    byte = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  return psdu;
}

struct WindowCase {
  DemodKind demod;
  bool timing_recovery;
};

class ReceiveWindowTest : public ::testing::TestWithParam<WindowCase> {
 protected:
  Receiver make_receiver() const {
    ReceiverConfig config;
    config.profile.demod = GetParam().demod;
    config.timing_recovery = GetParam().timing_recovery;
    return Receiver(config);
  }
};

TEST_P(ReceiveWindowTest, PpduPlusOneSampleDecodesLikeTheMaximumWindow) {
  const Transmitter tx;
  const Receiver receiver = make_receiver();
  dsp::Rng rng(0x77696e64);
  const std::size_t header_window = tx.transmit_psdu(bytevec{}).size() + 1;
  // The reference window: a 127-byte PPDU plus one sample, the most any
  // frame is decoded from.
  const std::size_t max_window =
      tx.transmit_psdu(bytevec(kMaxPsduBytes, 0)).size() + 1;

  for (std::size_t length = 1; length <= kMaxPsduBytes; ++length) {
    SCOPED_TRACE("psdu bytes " + std::to_string(length));
    // The frame, then a back-to-back frame of random length, then silence:
    // whatever follows the PPDU must not leak into its decode. A valid MAC
    // frame (FCS ok) for some lengths exercises the mac parse path too.
    bytevec psdu = random_psdu(length, rng);
    if (length >= 11 && length % 5 == 0) {
      MacFrame frame = make_text_frame(static_cast<unsigned>(length), 1);
      frame.payload.resize(length - 11, 0x5A);
      psdu = frame.serialize();
    }
    const cvec frame = tx.transmit_psdu(psdu);
    cvec stream = frame;
    const cvec next = tx.transmit_psdu(
        random_psdu(1 + rng.uniform_index(kMaxPsduBytes), rng));
    stream.insert(stream.end(), next.begin(), next.end());
    stream.resize(std::max(stream.size(), max_window + 64));
    // A fractional timing offset makes clock recovery retime the span, and
    // noise keeps every sample distinct.
    stream = channel::add_awgn(
        channel::apply_timing_offset(stream, rng.uniform(0.05, 0.45)), 9.0,
        rng);
    const std::span<const cplx> air(stream);

    // The scanner's window: PPDU + 1, for every length.
    const std::size_t exact = frame.size() + 1;
    // With clock recovery the reference comes from the per-call oracle,
    // which retimes the whole window before decoding, so a header pass
    // that retimed too little would show.
    const ReceiveResult reference =
        GetParam().timing_recovery
            ? oracles::PerCallTimingReceiver(receiver.config())
                  .receive(air.first(max_window))
            : receiver.receive(air.first(max_window));
    expect_identical(receiver.receive(air.first(exact)), reference);
    // A stream that ends between the two windows (a flush): same result.
    const std::size_t cut =
        exact + rng.uniform_index(max_window - exact + 1);
    expect_identical(receiver.receive(air.first(cut)), reference);

    // The header pass on SHR + PHR + 1 samples announces what the decode
    // acts on, and the decode resumed from it is the one-shot decode.
    HeaderRead header;
    receiver.read_header(air.first(header_window), header);
    EXPECT_TRUE(header.complete);
    if (reference.phr_ok) {
      EXPECT_EQ(header.psdu_bytes,
                std::optional<std::size_t>(reference.psdu.size()));
    } else {
      EXPECT_EQ(header.psdu_bytes, std::nullopt);
    }
    expect_identical(receiver.receive(air.first(exact), header), reference);
    expect_identical(receiver.receive(air.first(cut), header), reference);
  }
}

TEST_P(ReceiveWindowTest, HeaderPassRejectsShortSpansAndBadLengths) {
  const Transmitter tx;
  const Receiver receiver = make_receiver();
  const cvec wave = tx.transmit_psdu(bytevec(31, 0xC3));
  const std::size_t header_window = tx.transmit_psdu(bytevec{}).size() + 1;
  HeaderRead header;
  receiver.read_header(std::span<const cplx>(wave).first(header_window),
                       header);
  EXPECT_TRUE(header.shr_ok);
  EXPECT_EQ(header.psdu_bytes, std::optional<std::size_t>(31));
  expect_identical(receiver.receive(wave, header), receiver.receive(wave));

  // One sample short of SHR + PHR: nothing to read, and a decode resumed
  // from it fails like a one-shot decode of that span.
  const std::span<const cplx> short_span =
      std::span<const cplx>(wave).first(header_window - 2);
  receiver.read_header(short_span, header);
  EXPECT_FALSE(header.complete);
  EXPECT_EQ(header.psdu_bytes, std::nullopt);
  expect_identical(receiver.receive(short_span, header),
                   receiver.receive(short_span));

  // A zero-length PHR is out of range: the decode stops at the PHR.
  const cvec empty = tx.transmit_psdu(bytevec{});
  receiver.read_header(empty, header);
  EXPECT_TRUE(header.complete);
  EXPECT_EQ(header.psdu_bytes, std::nullopt);
  EXPECT_FALSE(receiver.receive(empty, header).phr_ok);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ReceiveWindowTest,
    ::testing::Values(WindowCase{DemodKind::differential, false},
                      WindowCase{DemodKind::differential, true},
                      WindowCase{DemodKind::coherent, false},
                      WindowCase{DemodKind::coherent, true}),
    [](const ::testing::TestParamInfo<WindowCase>& case_info) {
      return std::string(case_info.param.demod == DemodKind::differential
                             ? "Differential"
                             : "Coherent") +
             (case_info.param.timing_recovery ? "Retimed" : "Plain");
    });

}  // namespace
}  // namespace ctc::zigbee
