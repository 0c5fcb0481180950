// Online frame synchronization + per-frame detection over a continuous
// IQ stream.
//
// The batch pipeline hands zigbee::Receiver a waveform whose sample 0 is a
// frame start; a deployed monitor sees an endless stream with frames at
// unknown positions, gaps, noise, and possibly truncated tails. The
// StreamScanner closes that gap: it buffers pushed sample blocks, searches
// fixed-size scan rounds for an SHR correlation peak (normalized metric,
// accepted at zigbee::kShrSyncThreshold like zigbee::Receiver::synchronize,
// with a sliding prefix-sum energy term so the search is O(window) per
// offset instead of O(window^2)), decodes each detected frame with the full
// receiver, feeds the discriminator chips to a defense::StreamingDetector,
// and emits one VerdictRecord per decoded frame through a callback.
//
// Determinism contract (the service's replay gate rests on it): the
// scanner's decisions depend only on the sample values and their absolute
// stream positions — never on how the stream was partitioned into push()
// calls. Scan rounds fire at fixed stream offsets once enough samples are
// buffered, so pushing one sample at a time and pushing the whole capture
// at once produce byte-identical verdict streams (pinned by
// tests/sentry/frame_sync_test.cpp).
//
// Latency follows each frame's own length. After a sync the scanner waits
// for the SHR + PHR plus one sample and runs the receiver's header pass
// (zigbee::Receiver::read_header) to learn the PHR length. A valid length
// L in 1..127 then waits for the PPDU plus one sample and the decode
// resumes from that header pass instead of repeating it; an invalid PHR is
// rejected at once. The extra sample is the one clock recovery's
// fractional delay may read past the PPDU. A verdict is therefore emitted
// once the sample after the frame's last is buffered,
// plus whatever the caller's block size adds. Both waits are fixed sample
// counts derived from sample values, so the partition invariance above
// holds.
//
// Ingest sanitisation: push() zeroes every sample whose |x|^2 is not finite
// (NaN, +-Inf, or a finite sample whose norm overflows) before any scan
// touches it, and counts it in ScannerStats::samples_quarantined. A
// non-finite sample therefore damages at most the frame whose span it falls
// in; it can never turn a scan round's energies into NaN.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "defense/streaming.h"
#include "dsp/types.h"
#include "sentry/verdict.h"
#include "zigbee/receiver.h"

namespace ctc::sentry {

struct ScannerConfig {
  zigbee::ReceiverConfig receiver;
  defense::DetectorConfig detector;
};

/// Monotonic per-channel progress counters (plain integers: the scanner is
/// single-threaded; the service aggregates across channels separately).
struct ScannerStats {
  std::uint64_t samples_in = 0;           ///< samples pushed
  std::uint64_t samples_quarantined = 0;  ///< non-finite samples zeroed
  std::uint64_t samples_consumed = 0;     ///< samples retired from the buffer
  std::uint64_t scan_rounds = 0;          ///< sync searches run
  std::uint64_t sync_misses = 0;          ///< rounds with no acceptable peak
  std::uint64_t frames_detected = 0;      ///< accepted correlation peaks
  std::uint64_t frames_decoded = 0;       ///< detected frames with a valid PHR
  std::uint64_t frames_ok = 0;            ///< decoded frames passing CRC etc.
  std::uint64_t verdicts = 0;             ///< VerdictRecords emitted
  std::uint64_t verdicts_attack = 0;      ///< records with is_attack == true
};

class StreamScanner {
 public:
  using VerdictFn = std::function<void(const VerdictRecord&)>;

  StreamScanner(ScannerConfig config, std::size_t channel, VerdictFn on_verdict);

  /// Appends a block and processes every scan round it completes.
  /// `queue_depth` and `dropped_so_far` are ingest-side context stamped
  /// into any verdict this block completes (pass 0 when not applicable).
  void push(std::span<const cplx> samples, std::size_t queue_depth = 0,
            std::uint64_t dropped_so_far = 0);

  /// Stream end: processes the buffered remainder, allowing partial scan
  /// rounds and truncated frame decodes.
  void flush();

  const ScannerStats& stats() const { return stats_; }
  const ScannerConfig& config() const { return config_; }

  /// Samples buffered but not yet retired (the scanner's lookahead).
  std::size_t buffered() const { return avail(); }

  /// Samples a serialized PPDU with `psdu_bytes` of payload occupies
  /// ((symbols * 32 chips + 1) * samples_per_chip — the O-QPSK pulse tail
  /// adds one chip period).
  static std::size_t ppdu_samples(std::size_t psdu_bytes,
                                  std::size_t samples_per_chip);

  /// SHR correlation window length in samples.
  std::size_t sync_window() const { return window_; }

 private:
  void advance(bool flushing);
  /// One scan round over the buffered stream; returns true when the round
  /// consumed samples or detected a frame (i.e. progress was made).
  bool scan_round(bool flushing);
  /// Decodes the frame starting at `offset` from `take` buffered samples
  /// and emits its verdict (or counts a false sync).
  void decode_at(std::size_t offset, std::size_t take);
  void consume(std::size_t count);
  /// Zeroes (in buffer_ and norms_) and counts every sample from `from` on
  /// whose norm is not finite.
  void quarantine(std::size_t from);
  /// Samples a frame announcing `psdu_bytes` waits for past its start: its
  /// PPDU plus the one sample clock recovery may look ahead.
  std::size_t decode_need(std::size_t psdu_bytes) const;

  const cplx* data() const { return buffer_.data() + start_; }
  std::size_t avail() const { return buffer_.size() - start_; }

  ScannerConfig config_;
  std::size_t channel_ = 0;
  VerdictFn on_verdict_;
  zigbee::Receiver receiver_;
  defense::StreamingDetector detector_;
  cvec shr_reference_;
  double reference_energy_ = 0.0;
  std::size_t window_ = 0;       ///< SHR samples
  /// Samples past a frame start its PHR read waits for: SHR + PHR plus
  /// the one sample clock recovery may look ahead.
  std::size_t header_need_ = 0;
  /// Preamble-structure screen: the SHR's eight preamble symbols repeat the
  /// same sample block (symbol period seg_len_), so symbols 1..7 of the
  /// reference are bitwise-identical segments. A scan round correlates the
  /// stream against that ONE segment at every strip offset (corr_many) and
  /// combines the per-segment magnitudes into a rigorous upper bound on the
  /// full-window correlation (triangle inequality across segments +
  /// Cauchy-Schwarz on the non-repeating head/tail). Offsets whose bound
  /// falls below the acceptance threshold provably cannot synchronize and
  /// skip the exact window_-sample dot — the decisions (and therefore every
  /// output byte) are unchanged, only the arithmetic volume drops.
  bool screen_ok_ = false;      ///< segment structure verified at construction
  std::size_t seg_len_ = 0;     ///< one symbol period in samples
  std::size_t preamble_len_ = 0;  ///< eight preamble symbols in samples
  double seg0_energy_ = 0.0;    ///< energy of the (distinct) first segment
  double tail_energy_ = 0.0;    ///< energy of the SFD + pulse-tail remainder
  /// Hill-climb extension past a threshold crossing so a peak straddling a
  /// round boundary refines to its true offset (fixed width => partition
  /// invariant).
  std::size_t guard_ = 0;

  cvec buffer_;
  std::size_t start_ = 0;  ///< consumed prefix within buffer_ (compacted lazily)
  std::uint64_t base_position_ = 0;  ///< stream index of data()[0]
  /// Offset (within data()) of a detected frame start still waiting for
  /// samples; kNoPendingSync = none pending.
  std::size_t pending_sync_ = kNoPendingSync;
  static constexpr std::size_t kNoPendingSync = static_cast<std::size_t>(-1);
  /// Samples past pending_sync_ the pending frame waits for: header_need_
  /// until its PHR length is read, then decode_need(length).
  std::size_t pending_need_ = 0;
  bool length_read_ = false;  ///< header_ holds the pending frame's header
  zigbee::HeaderRead header_;  ///< the pending frame's header pass
  /// Wall time of the pending frame's PHR read, folded into its one
  /// sentry/decode_ns and sentry/frame_ns observation (telemetry only).
  std::uint64_t header_read_ns_ = 0;

  std::size_t last_queue_depth_ = 0;
  std::uint64_t last_dropped_ = 0;
  /// Per-sample |x|^2, maintained incrementally: computed once when a block
  /// arrives (push) and erased alongside buffer_ at compaction, so a sample's
  /// norm is never recomputed across the scan rounds that overlap it. Always
  /// parallel to buffer_.
  rvec norms_;
  /// Scratch: per-round prefix sums over norms_. Still rebuilt per round —
  /// anchoring the running sum at each round's first offset (not at a
  /// persistent epoch) is what keeps window energies bit-identical to the
  /// pre-cache scanner, since float prefix differences depend on the anchor.
  rvec energy_prefix_;
  cvec corr_strip_;  ///< scratch: corr_many output strip per scan round

  ScannerStats stats_;
};

}  // namespace ctc::sentry
