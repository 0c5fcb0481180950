#include "sentry/frame_sync.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

}  // namespace
}  // namespace ctc::sentry
