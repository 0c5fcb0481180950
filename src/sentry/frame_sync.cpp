#include "sentry/frame_sync.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"
#include "sim/telemetry.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/transmitter.h"

namespace ctc::sentry {

namespace {

/// Candidate frame-start offsets searched per scan round. Larger rounds
/// amortize bookkeeping; smaller rounds shrink buffered lookahead.
constexpr std::size_t kScanSpan = 2048;
/// Windows whose energy falls below this are skipped without running the
/// correlation — an exact-zero gap (idle air in generated streams) costs
/// one prefix-sum subtraction per offset instead of a 640-sample dot.
constexpr double kEnergyGate = 1e-12;
/// Minimum constellation points for a valid verdict (forwarded to
/// defense::StreamingDetector::verdict).
constexpr std::size_t kMinPoints = 4;

}  // namespace

StreamScanner::StreamScanner(ScannerConfig config, std::size_t channel,
                             VerdictFn on_verdict)
    : config_(std::move(config)),
      channel_(channel),
      on_verdict_(std::move(on_verdict)),
      receiver_(config_.receiver),
      detector_(config_.detector) {
  const zigbee::Transmitter tx(
      {.samples_per_chip = config_.receiver.samples_per_chip,
       .normalize_power = true});
  shr_reference_ = tx.shr_reference();
  window_ = shr_reference_.size();
  reference_energy_ =
      dsp::kernels::active().energy(shr_reference_.data(), window_);
  // A threshold crossing can land a few samples before the true correlation
  // peak (the metric is smooth across sub-chip offsets); half a symbol of
  // hill-climb headroom refines it without ever re-deciding earlier offsets.
  guard_ = 8 * config_.receiver.samples_per_chip;
  header_need_ = ppdu_samples(0, config_.receiver.samples_per_chip) + 1;

  // Preamble-structure screen setup. The SHR is eight identical preamble
  // symbols followed by the SFD: with the O-QPSK half-sine pulse confined to
  // one chip period, every preamble symbol after the first reproduces the
  // same sample block exactly (the first differs only in its leading chip,
  // which has no predecessor). Verify that bitwise rather than assume it —
  // if a future waveform profile breaks the structure the scanner falls
  // back to the exact full sweep and stays correct.
  seg_len_ = zigbee::kChipsPerSymbol * config_.receiver.samples_per_chip;
  preamble_len_ = 2 * zigbee::kPreambleBytes * seg_len_;
  screen_ok_ = window_ > preamble_len_ && preamble_len_ == 8 * seg_len_;
  for (std::size_t k = 2; screen_ok_ && k < 8; ++k) {
    screen_ok_ = std::memcmp(shr_reference_.data() + seg_len_,
                             shr_reference_.data() + k * seg_len_,
                             seg_len_ * sizeof(cplx)) == 0;
  }
  if (screen_ok_) {
    const dsp::kernels::KernelTable& kt = dsp::kernels::active();
    seg0_energy_ = kt.energy(shr_reference_.data(), seg_len_);
    tail_energy_ = kt.energy(shr_reference_.data() + preamble_len_,
                             window_ - preamble_len_);
  }
}

std::size_t StreamScanner::ppdu_samples(std::size_t psdu_bytes,
                                        std::size_t samples_per_chip) {
  // SHR (preamble + SFD) + PHR = kPreambleBytes + 2 bytes, two symbols per
  // byte; the O-QPSK half-sine tail adds one chip period.
  const std::size_t symbols = (zigbee::kPreambleBytes + 2 + psdu_bytes) * 2;
  return (symbols * zigbee::kChipsPerSymbol + 1) * samples_per_chip;
}

std::size_t StreamScanner::decode_need(std::size_t psdu_bytes) const {
  return ppdu_samples(psdu_bytes, config_.receiver.samples_per_chip) + 1;
}

void StreamScanner::push(std::span<const cplx> samples,
                         std::size_t queue_depth,
                         std::uint64_t dropped_so_far) {
  stats_.samples_in += samples.size();
  last_queue_depth_ = queue_depth;
  last_dropped_ = dropped_so_far;
  CTC_TELEM_COUNT("sentry", "samples_in", samples.size());
  buffer_.insert(buffer_.end(), samples.begin(), samples.end());
  // Incremental frame-sync state: each sample's |x|^2 is computed exactly
  // once, on arrival. Scan rounds overlap by window_ - 1 + guard_ samples,
  // so the pre-cache scanner recomputed these norms once per overlapping
  // round; now they are loads.
  //
  // Ingest sanitisation happens here, before any scan reads the block: a
  // sample whose norm is not finite (NaN, +-Inf, or a finite sample whose
  // |x|^2 overflows) is zeroed in both buffers. Left in place it would turn
  // every later window energy of its scan round into NaN, which fails every
  // threshold test and hides frames far from the damage.
  const std::size_t old_size = norms_.size();
  norms_.resize(buffer_.size());
  // Set once any norm is not finite (NaN fails the comparison, +Inf
  // exceeds max()). A select rather than a branch or a bool reduction, so
  // the loop vectorizes like the plain norm loop.
  double non_finite = 0.0;
  for (std::size_t i = old_size; i < buffer_.size(); ++i) {
    const double norm = std::norm(buffer_[i]);
    norms_[i] = norm;
    non_finite = norm <= std::numeric_limits<double>::max() ? non_finite : 1.0;
  }
  if (non_finite != 0.0) quarantine(old_size);
  advance(false);
}

void StreamScanner::quarantine(std::size_t from) {
  std::uint64_t quarantined = 0;
  for (std::size_t i = from; i < buffer_.size(); ++i) {
    if (!std::isfinite(norms_[i])) {
      buffer_[i] = cplx{0.0, 0.0};
      norms_[i] = 0.0;
      ++quarantined;
    }
  }
  stats_.samples_quarantined += quarantined;
  CTC_TELEM_COUNT("sentry", "quarantined", quarantined);
}

void StreamScanner::flush() { advance(true); }

void StreamScanner::advance(bool flushing) {
  for (;;) {
    if (pending_sync_ == kNoPendingSync) {
      if (!scan_round(flushing)) return;
      continue;
    }
    const std::size_t offset = pending_sync_;
    const std::size_t have = avail() - offset;
    std::size_t take = pending_need_;
    if (have < pending_need_) {
      if (!flushing) return;
      take = have;  // stream end: decode the truncated tail
    } else if (!length_read_) {
      // Stage 1: SHR + PHR are buffered. A valid length sets the stage-2
      // wait; an invalid PHR decodes now, which rejects it (phr_ok false).
      length_read_ = true;
      {
        CTC_TELEM_LAP(header_read_ns_);
        receiver_.read_header(
            std::span<const cplx>(data() + offset, header_need_), header_);
      }
      if (header_.psdu_bytes) {
        pending_need_ = decode_need(*header_.psdu_bytes);
        continue;
      }
    }
    pending_sync_ = kNoPendingSync;
    decode_at(offset, take);
  }
}

bool StreamScanner::scan_round(bool flushing) {
  // A full round needs every offset in [0, kScanSpan) to see a complete
  // correlation window, plus the hill-climb guard. The requirement is a
  // fixed sample count, which is what makes the scanner's decisions
  // independent of how the stream was chopped into push() blocks.
  const std::size_t full_need = kScanSpan + window_ - 1 + guard_;
  if (!flushing && avail() < full_need) return false;
  if (avail() == 0) return false;

  std::size_t limit = 0;
  if (avail() >= window_) {
    limit = std::min(kScanSpan, avail() - window_ + 1);
  }
  if (limit == 0) {
    // Flushing with a sub-window tail: nothing left can synchronize.
    consume(avail());
    return true;
  }

  ++stats_.scan_rounds;
  CTC_TELEM_TIMER("sentry", "scan_ns");
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const std::size_t search_end =
      std::min(avail() - window_, limit - 1 + guard_);

  // Sliding window energy via prefix sums: O(1) per offset instead of a
  // second O(window) reduction. The running sum reads the cached per-sample
  // norms but is still anchored at this round's first offset and added in
  // the same left-to-right order, so every window energy is bit-identical
  // to the pre-cache scanner (a persistent epoch-anchored prefix would not
  // be: float prefix differences depend on the anchor).
  energy_prefix_.resize(search_end + window_ + 1);
  energy_prefix_[0] = 0.0;
  const double* norms = norms_.data() + start_;
  for (std::size_t i = 0; i < search_end + window_; ++i) {
    energy_prefix_[i + 1] = energy_prefix_[i] + norms[i];
  }
  const auto window_energy = [&](std::size_t offset) {
    return energy_prefix_[offset + window_] - energy_prefix_[offset];
  };
  const auto metric_at = [&](std::size_t offset) {
    const cplx correlation =
        kt.dot_conj(data() + offset, shr_reference_.data(), window_);
    return std::norm(correlation) /
           (window_energy(offset) * reference_energy_);
  };

  // Preamble-structure screen. One corr_many pass correlates the stream
  // against the repeated preamble segment at every offset the round can
  // touch (including each offset's seven segment-aligned echoes). For a
  // candidate offset o, the full-window correlation splits exactly (in real
  // arithmetic) into the head segment, seven repeated segments, and the
  // SFD/tail remainder:
  //
  //   |dot(o)| <= sqrt(7 * sum_k |c(o + k*seg)|^2)        (triangle + C-S
  //             + sqrt(E_sig(o, seg)        * E_seg0)      over segments,
  //             + sqrt(E_sig(o+8seg, tail)  * E_tail)      C-S on the rest)
  //
  // The 1e-6 slack swamps every float-rounding discrepancy between this
  // bound and the exact kernel's summation order (relative error there is
  // O(window * eps) ~ 1e-13), so bound < threshold proves the exact metric
  // cannot reach the threshold and the offset is skipped without changing
  // any decision. Survivors — true peaks and segment-aligned partial
  // overlaps — still run the exact dot in the original order.
  const bool screened = screen_ok_;
  if (screened) {
    const std::size_t strip = search_end + 6 * seg_len_ + 1;
    corr_strip_.resize(strip);
    kt.corr_many(data() + seg_len_, shr_reference_.data() + seg_len_,
                 seg_len_, strip, corr_strip_.data());
  }
  const auto bound_metric = [&](std::size_t offset, double we) {
    double seg_power = 0.0;
    for (std::size_t k = 0; k < 7; ++k) {
      seg_power += std::norm(corr_strip_[offset + k * seg_len_]);
    }
    const double head =
        energy_prefix_[offset + seg_len_] - energy_prefix_[offset];
    const double tail = energy_prefix_[offset + window_] -
                        energy_prefix_[offset + preamble_len_];
    const double bound = std::sqrt(7.0 * seg_power) +
                         std::sqrt(head * seg0_energy_) +
                         std::sqrt(tail * tail_energy_);
    return bound * bound * (1.0 + 1e-6) / (we * reference_energy_);
  };

  std::size_t best = kNoPendingSync;
  double best_metric = 0.0;
  for (std::size_t offset = 0; offset < limit; ++offset) {
    const double we = window_energy(offset);
    if (we <= kEnergyGate) continue;
    if (screened && bound_metric(offset, we) < zigbee::kShrSyncThreshold) {
      continue;  // provably below threshold: skipping cannot change `best`
    }
    const double metric = metric_at(offset);
    if (metric >= zigbee::kShrSyncThreshold && metric > best_metric) {
      best = offset;
      best_metric = metric;
    }
  }

  if (best == kNoPendingSync) {
    ++stats_.sync_misses;
    CTC_TELEM_COUNT("sentry", "sync_miss", 1);
    consume(limit);
    return true;
  }

  // Hill-climb past the round edge: whenever the argmax advances, the
  // horizon extends another guard_ offsets (never beyond search_end).
  std::size_t horizon = std::min(best + guard_, search_end);
  for (std::size_t offset = best + 1; offset <= horizon; ++offset) {
    const double we = window_energy(offset);
    if (we <= kEnergyGate) continue;
    if (screened && bound_metric(offset, we) <= best_metric) {
      continue;  // bound can't beat the incumbent, so neither can the metric
    }
    if (const double metric = metric_at(offset); metric > best_metric) {
      best = offset;
      best_metric = metric;
      horizon = std::min(best + guard_, search_end);
    }
  }

  ++stats_.frames_detected;
  CTC_TELEM_COUNT("sentry", "frame_detected", 1);
  pending_sync_ = best;
  pending_need_ = header_need_;
  length_read_ = false;
  header_read_ns_ = 0;
  return true;
}

void StreamScanner::decode_at(std::size_t offset, std::size_t take) {
  CTC_TELEM_TIMER("sentry", "frame_ns", header_read_ns_);
  const std::size_t have = avail() - offset;
  std::optional<zigbee::ReceiveResult> decoded;
  {
    CTC_TELEM_TIMER("sentry", "decode_ns", header_read_ns_);
    // The decode resumes from the header pass when stage 1 ran it.
    const std::span<const cplx> frame(data() + offset, take);
    decoded = length_read_ ? receiver_.receive(frame, header_)
                           : receiver_.receive(frame);
  }
  const zigbee::ReceiveResult& rx = *decoded;

  // False sync (or a truncated tail): skip past the correlated window so
  // the next round starts on fresh samples.
  std::size_t consumed = std::min(window_, have);
  if (rx.phr_ok) {
    ++stats_.frames_decoded;
    if (rx.frame_ok()) ++stats_.frames_ok;
    CTC_TELEM_COUNT("sentry", "frame_decoded", 1);
    consumed = std::min(
        ppdu_samples(rx.psdu.size(), config_.receiver.samples_per_chip), take);

    std::optional<defense::Verdict> verdict;
    {
      CTC_TELEM_TIMER("sentry", "classify_ns");
      detector_.begin_frame();
      detector_.push_chips(rx.freq_chips);
      verdict = detector_.verdict(kMinPoints);
    }

    VerdictRecord record;
    record.channel = channel_;
    record.frame_index = stats_.verdicts;
    record.stream_position = base_position_ + offset;
    record.frame_samples = consumed;
    record.frame_ok = rx.frame_ok();
    record.points = detector_.points();
    record.valid = verdict.has_value();
    if (verdict) {
      record.de2 = verdict->distance_sq;
      record.c40 = verdict->feature.c40;
      record.c42 = verdict->feature.c42;
      record.is_attack = verdict->is_attack;
    }
    record.queue_depth = last_queue_depth_;
    record.dropped_before = last_dropped_;

    ++stats_.verdicts;
    if (record.is_attack) ++stats_.verdicts_attack;
    CTC_TELEM_COUNT("sentry", "verdict", 1);
    if (record.is_attack) CTC_TELEM_COUNT("sentry", "verdict_attack", 1);
    CTC_TELEM_HISTO("sentry", "queue_depth", record.queue_depth);
    if (on_verdict_) on_verdict_(record);
  } else {
    CTC_TELEM_COUNT("sentry", "false_sync", 1);
  }
  consume(offset + consumed);
}

void StreamScanner::consume(std::size_t count) {
  CTC_REQUIRE(count <= avail());
  start_ += count;
  base_position_ += count;
  stats_.samples_consumed += count;
  // Amortized compaction: reclaim the consumed prefix once it dominates the
  // buffer, so steady-state cost is O(1) per sample.
  if (start_ >= 4096 && start_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(start_));
    norms_.erase(norms_.begin(),
                 norms_.begin() + static_cast<std::ptrdiff_t>(start_));
    start_ = 0;
  }
}

}  // namespace ctc::sentry
