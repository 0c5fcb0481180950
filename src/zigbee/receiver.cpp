#include "zigbee/receiver.h"

#include <algorithm>
#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"
#include "dsp/resample.h"
#include "sim/telemetry.h"
#include "zigbee/dsss.h"
#include "zigbee/transmitter.h"

namespace ctc::zigbee {

namespace {

constexpr std::size_t kShrSymbols = 2 * (kPreambleBytes + 1);  // 10
constexpr std::size_t kPhrSymbols = 2;
constexpr std::size_t kHeaderSymbols = kShrSymbols + kPhrSymbols;

/// Per-thread receive scratch: receive() runs on every Monte Carlo trial,
/// and these buffers were its per-trial allocation high-water mark.
struct Scratch {
  cvec retimed;    ///< clock-recovered waveform
  cvec equalized;  ///< the frame, divided by h
  /// Chip caches the frame pass extends from the header's chips. Both
  /// demodulations are per-chip, so extending a cache is bit-identical to
  /// a full-stream call: the header's chips are demodulated once.
  rvec freq_chips;
  rvec soft_chips;
};
thread_local Scratch scratch;

/// Grows `equalized` from its current size to the first `samples` samples
/// of `waveform` divided by h (left undivided when |h| is too small to
/// divide by). cdiv is elementwise, so a staged division rounds every
/// sample exactly as a one-shot one.
void equalize(std::span<const cplx> waveform, std::size_t samples, cplx h,
              cvec& equalized) {
  const std::size_t have = equalized.size();
  CTC_REQUIRE(have <= samples && samples <= waveform.size());
  equalized.insert(equalized.end(),
                   waveform.begin() + static_cast<std::ptrdiff_t>(have),
                   waveform.begin() + static_cast<std::ptrdiff_t>(samples));
  if (std::abs(h) > 1e-9) {
    dsp::kernels::active().cdiv(equalized.data() + have, samples - have, h);
  }
}

/// Despreads the first `num_chips` of `chips` (frequency chips for the
/// differential profile, soft chips for the coherent one) with the
/// profile's correlation threshold.
std::vector<DespreadResult> despread_chips(const rvec& chips,
                                           const ReceiverProfile& profile,
                                           std::size_t num_chips) {
  const std::span<const double> head(chips.data(), num_chips);
  if (profile.demod == DemodKind::differential) {
    return despread_differential(head, profile.correlation_threshold);
  }
  return despread(OqpskDemodulator::hard_decision(head),
                  profile.correlation_threshold);
}

}  // namespace

ReceiverProfile ReceiverProfile::usrp() {
  ReceiverProfile profile;
  profile.name = "usrp";
  // The paper's "feasible threshold" is 10 in the chip domain; one chip error
  // flips two adjacent values in the differential domain this profile
  // despreads in, and 9 here reproduces the paper's Table II success curve.
  profile.correlation_threshold = 9;
  profile.sensitivity_gain_db = 0.0;
  profile.demod = DemodKind::differential;
  return profile;
}

ReceiverProfile ReceiverProfile::cc26x2r1() {
  ReceiverProfile profile;
  profile.name = "cc26x2r1";
  profile.correlation_threshold = 10;
  profile.sensitivity_gain_db = 6.0;
  profile.demod = DemodKind::coherent;
  return profile;
}

Receiver::Receiver(ReceiverConfig config)
    : config_(config), demodulator_(config.samples_per_chip) {
  TransmitterConfig tx_config;
  tx_config.samples_per_chip = config_.samples_per_chip;
  tx_config.normalize_power = false;  // reference amplitude = 1 per branch
  shr_reference_ = Transmitter(tx_config).shr_reference();

  if (config_.timing_recovery) {
    // Every shifted SHR reference and its correlation-window energy is a
    // pure function of the config, so clock recovery derives them once here
    // instead of once per frame per tau.
    const std::size_t window =
        kShrSymbols * kChipsPerSymbol * config_.samples_per_chip;
    for (double tau = -kTimingSearchRange; tau <= kTimingSearchRange + 1e-12;
         tau += kTimingSearchStep) {
      TimingReference entry;
      entry.tau = tau;
      entry.reference =
          dsp::fractional_delay(std::span<const cplx>(shr_reference_), tau);
      CTC_REQUIRE(entry.reference.size() >= window);
      entry.window_energy =
          dsp::kernels::active().energy(entry.reference.data(), window);
      timing_grid_.push_back(std::move(entry));
    }
  }
}

void Receiver::read_header(std::span<const cplx> waveform,
                           HeaderRead& header) const {
  const std::size_t spc = config_.samples_per_chip;
  const std::size_t header_chips = kHeaderSymbols * kChipsPerSymbol;
  const std::size_t header_samples = (header_chips + 1) * spc;
  header.complete = waveform.size() >= header_samples;
  header.shr_ok = false;
  header.psdu_bytes.reset();
  header.timing_offset = 0.0;
  header.channel_estimate = cplx{1.0, 0.0};
  header.freq_chips.clear();
  header.soft_chips.clear();
  if (!header.complete) return;

  // Clock recovery (Fig. 1): maximize the SHR correlation magnitude over a
  // sub-sample timing grid, then undo the winning fractional delay. The
  // shifted references (and their window energies) come from the grid
  // precomputed at construction.
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const std::size_t window = kShrSymbols * kChipsPerSymbol * spc;
  if (config_.timing_recovery) {
    double best_metric = -1.0;
    for (const TimingReference& entry : timing_grid_) {
      const cplx correlation =
          kt.dot_conj(waveform.data(), entry.reference.data(), window);
      // Normalize: linear interpolation attenuates the shifted reference,
      // which would otherwise bias the search toward tau = 0.
      const double metric = entry.window_energy > 0.0
                                ? std::norm(correlation) / entry.window_energy
                                : 0.0;
      if (metric > best_metric) {
        best_metric = metric;
        header.timing_offset = entry.tau;
      }
    }
    if (header.timing_offset != 0.0) {
      // Retime only what the header pass reads: SHR + PHR plus the one
      // sample the interpolation looks ahead.
      scratch.retimed = dsp::fractional_delay(
          waveform.first(std::min(waveform.size(), header_samples + 1)),
          -header.timing_offset);
      waveform = scratch.retimed;
    }
  }

  // Data-aided channel estimate over the SHR window: h = <r, ref> / ||ref||^2.
  // The coherent path needs it; the discriminator path is gain/phase
  // agnostic but shares the equalized buffer for simplicity.
  const cplx correlation =
      kt.dot_conj(waveform.data(), shr_reference_.data(), window);
  header.channel_estimate =
      correlation / kt.energy(shr_reference_.data(), window);
  header.equalized.clear();
  equalize(waveform, header_samples, header.channel_estimate,
           header.equalized);

  // Pass 1: header only, to learn the frame length. Both demodulations are
  // per-chip, so finish() extends these chips to the frame bit-identically
  // to a full-stream call.
  const bool differential = config_.profile.demod == DemodKind::differential;
  if (differential) {
    demodulator_.extend_frequency_chips(header.equalized, header_chips,
                                        header.freq_chips);
  } else {
    demodulator_.extend_soft_chips(header.equalized, header_chips,
                                   header.soft_chips);
  }
  const auto symbols =
      despread_chips(differential ? header.freq_chips : header.soft_chips,
                     config_.profile, header_chips);

  // Preamble: eight 0 symbols; SFD 0xA7 -> symbols {7, 10} (low nibble first).
  bool shr_ok = true;
  for (std::size_t s = 0; s < 2 * kPreambleBytes; ++s) {
    if (!symbols[s].accepted || symbols[s].symbol != 0) shr_ok = false;
  }
  const auto& sfd_low = symbols[2 * kPreambleBytes];
  const auto& sfd_high = symbols[2 * kPreambleBytes + 1];
  if (!sfd_low.accepted || sfd_low.symbol != (kSfd & 0x0F)) shr_ok = false;
  if (!sfd_high.accepted || sfd_high.symbol != (kSfd >> 4)) shr_ok = false;
  header.shr_ok = shr_ok;

  // PHR: frame length.
  const auto& len_low = symbols[kShrSymbols];
  const auto& len_high = symbols[kShrSymbols + 1];
  if (len_low.accepted && len_high.accepted) {
    const std::size_t psdu_bytes =
        (static_cast<std::size_t>(len_high.symbol) << 4) | len_low.symbol;
    if (psdu_bytes >= 1 && psdu_bytes <= kMaxPsduBytes) {
      header.psdu_bytes = psdu_bytes;
    }
  }
}

ReceiveResult Receiver::receive(std::span<const cplx> waveform) const {
  CTC_TELEM_TIMER("zigbee_rx", "receive");
  CTC_TELEM_COUNT("zigbee_rx", "frames", 1);
  // Thread-local like the rest of the scratch: receive() runs on every
  // Monte Carlo trial, and a fresh HeaderRead would allocate its chips.
  thread_local HeaderRead header;
  read_header(waveform, header);
  return finish(waveform, header);
}

ReceiveResult Receiver::receive(std::span<const cplx> waveform,
                                const HeaderRead& header) const {
  CTC_TELEM_TIMER("zigbee_rx", "receive");
  CTC_TELEM_COUNT("zigbee_rx", "frames", 1);
  return finish(waveform, header);
}

ReceiveResult Receiver::finish(std::span<const cplx> waveform,
                               const HeaderRead& header) const {
  ReceiveResult result;
  if (!header.complete) return result;
  result.shr_ok = header.shr_ok;
  if (result.shr_ok) CTC_TELEM_COUNT("zigbee_rx", "shr_ok", 1);
  const cplx h = header.channel_estimate;
  const bool equalizer_applied = std::abs(h) > 1e-9;
  if (equalizer_applied) result.channel_estimate = h;
  result.timing_offset_estimate = header.timing_offset;
  if (header.timing_offset != 0.0) {
    scratch.retimed = dsp::fractional_delay(waveform, -header.timing_offset);
    waveform = scratch.retimed;
  }

  // Noise estimate from the residual r - h*ref over the SHR window.
  const std::size_t spc = config_.samples_per_chip;
  const std::size_t window = kShrSymbols * kChipsPerSymbol * spc;
  double residual_energy = 0.0;
  double signal_energy = 0.0;
  for (std::size_t i = 0; i < window; ++i) {
    residual_energy += std::norm(waveform[i] - h * shr_reference_[i]);
    signal_energy += std::norm(h * shr_reference_[i]);
  }
  result.noise_variance_estimate = residual_energy / static_cast<double>(window);
  if (result.noise_variance_estimate > 0.0 && signal_energy > 0.0) {
    result.snr_estimate_db =
        10.0 * std::log10(signal_energy / residual_energy);
  }

  if (!header.psdu_bytes) return result;
  const std::size_t header_chips = kHeaderSymbols * kChipsPerSymbol;
  const std::size_t total_chips =
      header_chips + 2 * *header.psdu_bytes * kChipsPerSymbol;
  const std::size_t frame_samples = (total_chips + 1) * spc;
  if (waveform.size() < frame_samples) return result;
  result.phr_ok = true;
  CTC_TELEM_COUNT("zigbee_rx", "phr_ok", 1);

  // The frame length is now known: extend the header's equalized samples
  // and chips to exactly the frame's.
  scratch.equalized = header.equalized;
  equalize(waveform, frame_samples, h, scratch.equalized);
  scratch.freq_chips = header.freq_chips;
  scratch.soft_chips = header.soft_chips;

  // Pass 2: the whole frame, so differential chip boundaries carry across
  // the PHR/PSDU seam. The caches already hold the header's chips; only the
  // PSDU chips (and, for the other tap, the header's) are demodulated here.
  demodulator_.extend_soft_chips(scratch.equalized, total_chips,
                                 scratch.soft_chips);
  result.soft_chips.assign(scratch.soft_chips.begin() + header_chips,
                           scratch.soft_chips.end());
  demodulator_.extend_frequency_chips(scratch.equalized, total_chips,
                                      scratch.freq_chips);
  result.freq_chips.assign(scratch.freq_chips.begin() + header_chips,
                           scratch.freq_chips.end());
  result.hard_chips = OqpskDemodulator::hard_decision(result.soft_chips);

  const bool differential = config_.profile.demod == DemodKind::differential;
  const auto all_symbols = despread_chips(
      differential ? scratch.freq_chips : scratch.soft_chips, config_.profile,
      total_chips);
  result.psdu_complete = true;
  std::vector<std::uint8_t> symbol_values;
  symbol_values.reserve(all_symbols.size() - kHeaderSymbols);
  for (std::size_t s = kHeaderSymbols; s < all_symbols.size(); ++s) {
    result.hamming_distances.push_back(all_symbols[s].distance);
    // The statistic of the paper's Fig. 7: chip Hamming distance of the
    // best-matching sequence, per PSDU symbol.
    CTC_TELEM_HISTO("zigbee_rx", "symbol_hamming", all_symbols[s].distance);
    if (!all_symbols[s].accepted) result.psdu_complete = false;
    symbol_values.push_back(all_symbols[s].symbol);
  }
  result.psdu = symbols_to_bytes(symbol_values);
  if (result.psdu_complete) {
    result.mac = MacFrame::parse(result.psdu);
  }
  if (result.frame_ok()) CTC_TELEM_COUNT("zigbee_rx", "frames_ok", 1);
  return result;
}

std::optional<std::size_t> Receiver::synchronize(std::span<const cplx> waveform,
                                                 std::size_t max_offset) const {
  const std::size_t window = shr_reference_.size();
  if (waveform.size() < window) return std::nullopt;
  max_offset = std::min(max_offset, waveform.size() - window);

  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const double reference_energy = kt.energy(shr_reference_.data(), window);

  std::size_t best_offset = 0;
  double best_metric = 0.0;
  for (std::size_t offset = 0; offset <= max_offset; ++offset) {
    const cplx correlation =
        kt.dot_conj(waveform.data() + offset, shr_reference_.data(), window);
    const double received_energy = kt.energy(waveform.data() + offset, window);
    if (received_energy <= 0.0) continue;
    // Normalized correlation in [0, 1].
    const double metric =
        std::norm(correlation) / (received_energy * reference_energy);
    if (metric > best_metric) {
      best_metric = metric;
      best_offset = offset;
    }
  }
  if (best_metric < kShrSyncThreshold) return std::nullopt;
  return best_offset;
}

}  // namespace ctc::zigbee
