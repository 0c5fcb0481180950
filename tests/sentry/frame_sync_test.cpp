#include "sentry/frame_sync.h"

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dsp/rng.h"
#include "sentry/source.h"
#include "zigbee/transmitter.h"

namespace ctc::sentry {
namespace {

/// Drains a LinkSource into one contiguous stream.
cvec collect_stream(const LinkSourceConfig& config, std::size_t channel = 0) {
  LinkSource source(config, channel);
  cvec stream;
  cvec block(4096);
  while (true) {
    const std::size_t got = source.next_block(block);
    if (got == 0) break;
    stream.insert(stream.end(), block.begin(),
                  block.begin() + static_cast<std::ptrdiff_t>(got));
  }
  return stream;
}

struct ScanOutput {
  std::string jsonl;
  std::vector<VerdictRecord> records;
  ScannerStats stats;
};

ScanOutput scan_stream(std::span<const cplx> stream, std::size_t block_size,
                       const ScannerConfig& config = {}) {
  ScanOutput output;
  StreamScanner scanner(config, 0, [&](const VerdictRecord& record) {
    record.append_jsonl(output.jsonl);
    output.records.push_back(record);
  });
  for (std::size_t i = 0; i < stream.size(); i += block_size) {
    scanner.push(stream.subspan(i, std::min(block_size, stream.size() - i)));
  }
  scanner.flush();
  output.stats = scanner.stats();
  return output;
}

LinkSourceConfig quiet_config(std::size_t frames, std::size_t attack_every) {
  LinkSourceConfig config;
  config.environment = channel::Environment::awgn(15.0);
  config.frames = frames;
  config.attack_every = attack_every;
  config.gap_samples = 700;
  config.seed = 4057;
  return config;
}

TEST(StreamScannerTest, DecodesEveryFrameInAGappedStream) {
  const cvec stream = collect_stream(quiet_config(12, 0));
  const ScanOutput output = scan_stream(stream, 4096);

  EXPECT_EQ(output.stats.frames_decoded, 12u);
  EXPECT_EQ(output.stats.verdicts, 12u);
  EXPECT_EQ(output.stats.samples_in, stream.size());
  EXPECT_EQ(output.stats.samples_consumed, stream.size());
  for (const VerdictRecord& record : output.records) {
    EXPECT_TRUE(record.frame_ok);
    EXPECT_TRUE(record.valid);
    EXPECT_FALSE(record.is_attack);  // all-authentic stream at high SNR
  }
  // Frame starts are strictly increasing stream positions.
  for (std::size_t i = 1; i < output.records.size(); ++i) {
    EXPECT_GT(output.records[i].stream_position,
              output.records[i - 1].stream_position);
    EXPECT_EQ(output.records[i].frame_index, i);
  }
}

TEST(StreamScannerTest, FlagsEmulatedFramesAsAttacks) {
  const LinkSourceConfig config = quiet_config(12, 3);
  const cvec stream = collect_stream(config);
  const ScanOutput output = scan_stream(stream, 4096);

  ASSERT_EQ(output.records.size(), 12u);
  std::size_t attacks = 0;
  for (std::size_t i = 0; i < output.records.size(); ++i) {
    const bool expected = LinkSource::is_attack_frame(config, i + 1);
    EXPECT_EQ(output.records[i].is_attack, expected)
        << "frame " << i + 1 << " de2=" << output.records[i].de2;
    attacks += output.records[i].is_attack ? 1u : 0u;
  }
  EXPECT_EQ(attacks, 4u);
  EXPECT_EQ(output.stats.verdicts_attack, 4u);
}

TEST(StreamScannerTest, VerdictsAreInvariantToPushPartitioning) {
  const cvec stream = collect_stream(quiet_config(8, 3));
  const ScanOutput whole = scan_stream(stream, stream.size());
  EXPECT_EQ(whole.stats.verdicts, 8u);

  for (const std::size_t block : {1000003UL, 4096UL, 1537UL, 64UL, 1UL}) {
    if (block == 1 && stream.size() > 200000) {
      // One-sample pushes over the full stream are O(n) scanner calls; a
      // prefix exercises the same boundary logic.
      const std::span<const cplx> prefix(stream.data(), 200000);
      const ScanOutput chopped = scan_stream(prefix, block);
      const ScanOutput reference = scan_stream(prefix, prefix.size());
      EXPECT_EQ(chopped.jsonl, reference.jsonl) << "block=" << block;
      continue;
    }
    const ScanOutput chopped = scan_stream(stream, block);
    EXPECT_EQ(chopped.jsonl, whole.jsonl) << "block=" << block;
    EXPECT_EQ(chopped.stats.scan_rounds, whole.stats.scan_rounds);
    EXPECT_EQ(chopped.stats.sync_misses, whole.stats.sync_misses);
  }
}

TEST(StreamScannerTest, NoiseOnlyStreamEmitsNothing) {
  dsp::Rng rng(99);
  cvec noise(60000);
  for (cplx& sample : noise) sample = rng.complex_gaussian(0.1);
  const ScanOutput output = scan_stream(noise, 4096);
  EXPECT_EQ(output.stats.verdicts, 0u);
  EXPECT_EQ(output.stats.frames_detected, 0u);
  EXPECT_GT(output.stats.sync_misses, 0u);
  EXPECT_EQ(output.stats.samples_consumed, noise.size());
}

TEST(StreamScannerTest, TruncatedTailFrameIsDroppedNotHung) {
  const cvec stream = collect_stream(quiet_config(3, 0));
  // Chop the stream inside the last frame: its SHR syncs but the decode
  // sees a truncated capture.
  const std::size_t cut = stream.size() - 2500;
  const ScanOutput output =
      scan_stream(std::span<const cplx>(stream.data(), cut), 4096);
  EXPECT_EQ(output.stats.verdicts, 2u);
  EXPECT_EQ(output.stats.samples_consumed, cut);
}

TEST(StreamScannerTest, PpduSamplesMatchesTransmitterOutput) {
  for (const std::size_t payload : {0UL, 5UL, 40UL}) {
    zigbee::MacFrame frame;
    frame.payload.assign(payload, 0xAB);
    const zigbee::Transmitter tx({.samples_per_chip = 2,
                                  .normalize_power = true});
    const bytevec psdu = frame.serialize();
    EXPECT_EQ(StreamScanner::ppdu_samples(psdu.size(), 2),
              tx.transmit_psdu(psdu).size());
  }
}

TEST(StreamScannerTest, VerdictFiresOneSampleAfterTheFrame) {
  // Three frame lengths back to back (31-, 101- and 127-byte PSDUs).
  // Pushed one sample at a time, each verdict must fire on the push that
  // completes the frame's PPDU plus one sample, not after a 127-byte
  // PPDU's worth — and a 127-byte frame, too, waits for that one sample.
  LinkSourceConfig long_frames = quiet_config(3, 2);
  long_frames.payload_bytes = 90;
  LinkSourceConfig largest_frames = quiet_config(2, 2);
  largest_frames.payload_bytes = 116;
  cvec stream = collect_stream(quiet_config(3, 2));
  for (const LinkSourceConfig& config : {long_frames, largest_frames}) {
    const cvec tail = collect_stream(config);
    stream.insert(stream.end(), tail.begin(), tail.end());
  }

  std::size_t pushed = 0;
  bool flushing = false;
  std::vector<std::size_t> fired_at;
  std::vector<VerdictRecord> records;
  StreamScanner scanner({}, 0, [&](const VerdictRecord& record) {
    fired_at.push_back(flushing ? SIZE_MAX : pushed);
    records.push_back(record);
  });
  while (pushed < stream.size()) {
    const std::span<const cplx> one(stream.data() + pushed, 1);
    ++pushed;  // the callback sees the count including this sample
    scanner.push(one);
  }
  flushing = true;
  scanner.flush();

  ASSERT_EQ(records.size(), 8u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const VerdictRecord& record = records[i];
    const std::size_t due = record.stream_position + record.frame_samples + 1;
    if (due > stream.size()) {
      EXPECT_EQ(fired_at[i], SIZE_MAX) << "frame " << i;  // only at flush
    } else {
      EXPECT_EQ(fired_at[i], due) << "frame " << i;
    }
  }
  EXPECT_EQ(records[0].frame_samples, StreamScanner::ppdu_samples(31, 2));
  EXPECT_EQ(records[5].frame_samples, StreamScanner::ppdu_samples(101, 2));
  EXPECT_EQ(records[7].frame_samples, StreamScanner::ppdu_samples(127, 2));
}

TEST(StreamScannerTest, StreamEndingJustAfterTheFrameStillDecodesIt) {
  // Cuts from the PPDU's last sample to past a 127-byte PPDU window: the
  // last frame decodes at flush exactly as in the uncut stream.
  const LinkSourceConfig config = quiet_config(3, 0);
  const cvec stream = collect_stream(config);
  const std::size_t frame = StreamScanner::ppdu_samples(31, 2);
  const std::size_t last_end = 2 * (frame + config.gap_samples) + frame;
  ASSERT_LE(last_end, stream.size());
  cvec padded = stream;
  padded.resize(last_end + StreamScanner::ppdu_samples(127, 2));
  const ScanOutput whole = scan_stream(padded, 4096);
  ASSERT_EQ(whole.stats.verdicts, 3u);
  for (const std::size_t extra : {0UL, 1UL, 2UL, 700UL, 15000UL}) {
    const ScanOutput cut = scan_stream(
        std::span<const cplx>(padded.data(), last_end + extra), 4096);
    EXPECT_EQ(cut.jsonl, whole.jsonl) << "extra=" << extra;
  }
}

/// Stream with cf32 precision, as `ctc_sentry live --capture-out` writes it
/// and `ctc_sentry replay` reads it back.
cvec quantize_cf32(cvec stream) {
  for (cplx& sample : stream) {
    const std::complex<float> narrow(static_cast<float>(sample.real()),
                                     static_cast<float>(sample.imag()));
    sample = cplx(narrow.real(), narrow.imag());
  }
  return stream;
}

TEST(StreamScannerTest, NanInTheGapBeforeAnAttackFrameLosesNothing) {
  // Regression: `ctc_sentry live --frames=12 --attack-every=3` air with one
  // NaN at sample 25850, 400 samples before the second attack frame.
  // Unsanitised, the NaN poisons the scan round's prefix energies and hides
  // the frame at 26250 (11 verdicts, 3 attacks, later indices shifted).
  LinkSourceConfig config;
  config.environment = channel::Environment::awgn(15.0);
  config.frames = 12;
  config.attack_every = 3;
  const cvec clean = quantize_cf32(collect_stream(config));
  ASSERT_EQ(clean.size(), 63000u);
  cvec damaged = clean;
  damaged[25850] = cplx(std::numeric_limits<double>::quiet_NaN(), 0.0);

  const ScanOutput reference = scan_stream(clean, 4096);
  ASSERT_EQ(reference.stats.verdicts, 12u);
  ASSERT_EQ(reference.stats.verdicts_attack, 4u);
  EXPECT_EQ(reference.stats.samples_quarantined, 0u);
  const ScanOutput output = scan_stream(damaged, 4096);
  EXPECT_EQ(output.jsonl, reference.jsonl);
  EXPECT_EQ(output.stats.samples_quarantined, 1u);
}

TEST(StreamScannerTest, NonFiniteBurstsInGapsLeaveEveryFrameByteIdentical) {
  // Locality: NaN, +-Inf and overflowing bursts at seeded random positions
  // in the inter-frame gaps (noise-filled, so zeroing really changes the
  // gap) never lose a frame or change any verdict byte. Bursts stay one
  // correlation window + hill-climb guard clear of the next frame's start.
  LinkSourceConfig config = quiet_config(8, 3);
  config.gap_samples = 3000;
  cvec stream = collect_stream(config);
  dsp::Rng rng(0x6c6f63616c);
  for (cplx& sample : stream) sample += rng.complex_gaussian(1e-3);
  const ScanOutput reference = scan_stream(stream, 4096);
  ASSERT_EQ(reference.stats.verdicts, 8u);

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const cplx poison[] = {{nan, 0.0}, {0.0, nan}, {inf, 1.0}, {-inf, -inf},
                         {1e200, 0.0}, {3e154, 3e154}};
  const std::size_t frame = StreamScanner::ppdu_samples(31, 2);
  const std::size_t period = frame + config.gap_samples;
  const std::size_t clearance = 640 + 16 + 64;  // window + guard + burst
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    cvec damaged = stream;
    std::uint64_t injected = 0;
    for (std::size_t k = 0; k < config.frames; ++k) {
      const std::size_t gap_start = k * period + frame + 2;
      const std::size_t span = config.gap_samples - 2 - clearance;
      const std::size_t at = gap_start + rng.uniform_index(span);
      const std::size_t length = 1 + rng.uniform_index(64);
      for (std::size_t i = 0; i < length && at + i < damaged.size(); ++i) {
        damaged[at + i] = poison[rng.uniform_index(std::size(poison))];
        ++injected;
      }
    }
    const std::size_t block = 1 + rng.uniform_index(5000);
    const ScanOutput output = scan_stream(damaged, block);
    EXPECT_EQ(output.jsonl, reference.jsonl) << "block=" << block;
    EXPECT_EQ(output.stats.samples_quarantined, injected);
  }
}

}  // namespace
}  // namespace ctc::sentry
