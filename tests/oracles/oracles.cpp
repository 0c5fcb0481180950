#include "oracles/oracles.h"

#include <cmath>

#include "attack/carrier_allocation.h"
#include "attack/emulator.h"
#include "dsp/fft.h"
#include "dsp/kernels/kernels.h"
#include "dsp/require.h"
#include "dsp/resample.h"
#include "dsp/stats.h"
#include "wifi/ofdm.h"
#include "zigbee/chip_sequences.h"
#include "zigbee/frame.h"
#include "zigbee/transmitter.h"

namespace ctc::oracles {

zigbee::DespreadResult despread_block(std::span<const std::uint8_t> chips,
                                      std::size_t threshold) {
  CTC_REQUIRE(chips.size() == zigbee::kChipsPerSymbol);
  zigbee::DespreadResult result;
  std::size_t best = zigbee::kChipsPerSymbol + 1;
  const auto& table = zigbee::chip_table();
  for (std::size_t s = 0; s < zigbee::kNumSymbols; ++s) {
    const std::size_t distance = zigbee::hamming_distance(chips, table[s]);
    if (distance < best) {
      best = distance;
      result.symbol = static_cast<std::uint8_t>(s);
    }
  }
  result.distance = best;
  result.accepted = best <= threshold;
  return result;
}

zigbee::DespreadResult despread_differential_block(
    std::span<const double> freq_chips, std::uint8_t previous_chip,
    std::size_t threshold) {
  CTC_REQUIRE(freq_chips.size() == zigbee::kChipsPerSymbol);
  zigbee::DespreadResult result;
  std::size_t best = zigbee::kChipsPerSymbol + 1;
  const auto& table = zigbee::chip_table();
  for (std::size_t s = 0; s < zigbee::kNumSymbols; ++s) {
    const zigbee::ChipSequence& q = table[s];
    std::size_t distance = 0;
    for (std::size_t j = 0; j < zigbee::kChipsPerSymbol; ++j) {
      const int sign_j = (j % 2 == 1) ? 1 : -1;
      int predicted;
      if (j == 0) {
        if (previous_chip > 1) continue;  // no predecessor: skip chip 0
        predicted = sign_j * (2 * previous_chip - 1) * (2 * q[0] - 1);
      } else {
        predicted = sign_j * (2 * q[j - 1] - 1) * (2 * q[j] - 1);
      }
      const int observed = freq_chips[j] > 0.0 ? 1 : -1;
      if (observed != predicted) ++distance;
    }
    if (distance < best) {
      best = distance;
      result.symbol = static_cast<std::uint8_t>(s);
    }
  }
  result.distance = best;
  result.accepted = best <= threshold;
  return result;
}

namespace {

zigbee::ReceiverConfig without_timing_recovery(zigbee::ReceiverConfig config) {
  config.timing_recovery = false;
  return config;
}

}  // namespace

PerCallTimingReceiver::PerCallTimingReceiver(
    const zigbee::ReceiverConfig& config)
    : config_(config), plain_(without_timing_recovery(config)) {
  CTC_REQUIRE(config_.timing_recovery);
  zigbee::TransmitterConfig tx_config;
  tx_config.samples_per_chip = config_.samples_per_chip;
  tx_config.normalize_power = false;  // the receiver's reference amplitude
  shr_reference_ = zigbee::Transmitter(tx_config).shr_reference();
}

zigbee::ReceiveResult PerCallTimingReceiver::receive(
    std::span<const cplx> waveform) const {
  // The receiver bails out on captures shorter than SHR + PHR + one chip
  // before it searches, so the search here must not read past them either.
  const std::size_t spc = config_.samples_per_chip;
  const std::size_t shr_symbols = 2 * (zigbee::kPreambleBytes + 1);
  const std::size_t header_chips = (shr_symbols + 2) * zigbee::kChipsPerSymbol;
  if (waveform.size() < (header_chips + 1) * spc) return plain_.receive(waveform);

  const std::size_t window = shr_symbols * zigbee::kChipsPerSymbol * spc;
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  double best_metric = -1.0;
  double best_offset = 0.0;
  for (double tau = -zigbee::kTimingSearchRange;
       tau <= zigbee::kTimingSearchRange + 1e-12;
       tau += zigbee::kTimingSearchStep) {
    const cvec shifted =
        dsp::fractional_delay(std::span<const cplx>(shr_reference_), tau);
    const double energy = kt.energy(shifted.data(), window);
    const cplx correlation = kt.dot_conj(waveform.data(), shifted.data(), window);
    const double metric = energy > 0.0 ? std::norm(correlation) / energy : 0.0;
    if (metric > best_metric) {
      best_metric = metric;
      best_offset = tau;
    }
  }
  if (best_offset == 0.0) return plain_.receive(waveform);
  zigbee::ReceiveResult result =
      plain_.receive(dsp::fractional_delay(waveform, -best_offset));
  result.timing_offset_estimate = best_offset;
  return result;
}

attack::EmulationResult emulate_uncached(const attack::EmulatorConfig& config,
                                         std::span<const cplx> observed_4mhz) {
  constexpr std::size_t kSlot = wifi::kSymbolLength;
  constexpr std::size_t kFft = wifi::kNumSubcarriers;
  constexpr std::size_t kCp = wifi::kCyclicPrefixLength;
  attack::EmulationResult result;
  cvec upsampled = dsp::upsample(observed_4mhz, config.interpolation);
  const std::size_t remainder = upsampled.size() % kSlot;
  if (remainder != 0) {
    upsampled.resize(upsampled.size() + (kSlot - remainder), cplx{0.0, 0.0});
  }
  result.kept_bins = config.kept_bins.empty()
                         ? attack::SubcarrierSelector(config.selection)
                               .select_from_waveform(upsampled)
                               .bins
                         : config.kept_bins;
  double alpha;
  if (config.alpha) {
    alpha = *config.alpha;
  } else {
    const dsp::FftPlan plan(kFft);
    cvec pooled;
    for (std::size_t start = 0; start + kSlot <= upsampled.size(); start += kSlot) {
      const cvec spectrum = plan.forward(
          std::span<const cplx>(upsampled).subspan(start + kCp, kFft));
      for (std::size_t bin : result.kept_bins) pooled.push_back(spectrum[bin]);
    }
    alpha = attack::optimize_scale(pooled);
  }
  const attack::WaveformEmulator emulator(config);
  for (std::size_t start = 0; start + kSlot <= upsampled.size(); start += kSlot) {
    attack::SymbolDiagnostics diagnostics;
    cvec grid;
    const cvec symbol = emulator.emulate_symbol(
        std::span<const cplx>(upsampled).subspan(start, kSlot),
        result.kept_bins, alpha, &diagnostics, &grid);
    result.wifi_waveform_20mhz.insert(result.wifi_waveform_20mhz.end(),
                                      symbol.begin(), symbol.end());
    result.diagnostics.push_back(diagnostics);
    result.symbol_grids.push_back(std::move(grid));
  }
  result.emulated_4mhz =
      dsp::decimate(result.wifi_waveform_20mhz, config.interpolation);
  result.emulated_4mhz.resize(observed_4mhz.size(), cplx{0.0, 0.0});
  return result;
}

cvec clean_waveform(const sim::LinkConfig& config,
                    const zigbee::MacFrame& frame) {
  const cvec waveform = zigbee::Transmitter().transmit_frame(frame);
  if (config.kind == sim::LinkKind::authentic) return waveform;
  const attack::EmulationResult emulation =
      attack::WaveformEmulator(config.emulator).emulate(waveform);
  if (!config.attack_via_rf) return dsp::normalize_power(emulation.emulated_4mhz);
  cvec wifi_baseband;
  for (const cvec& grid : emulation.symbol_grids) {
    const cvec symbol = wifi::grid_to_time(
        attack::allocate_to_wifi_grid(grid, config.carrier_plan));
    wifi_baseband.insert(wifi_baseband.end(), symbol.begin(), symbol.end());
  }
  cvec at_victim =
      attack::wifi_band_to_zigbee_baseband(wifi_baseband, config.carrier_plan);
  at_victim.resize(waveform.size(), cplx{0.0, 0.0});
  return dsp::normalize_power(at_victim);
}

sim::FrameStats run_frames(const sim::Link& link,
                           std::span<const zigbee::MacFrame> frames,
                           std::size_t count, dsp::Rng& rng) {
  CTC_REQUIRE(!frames.empty());
  sim::FrameStats stats;
  for (std::size_t i = 0; i < count; ++i) {
    stats.add(link.send(frames[i % frames.size()], rng));
  }
  return stats;
}

sim::DefenseSamples collect_defense_samples(
    const sim::Link& link, std::span<const zigbee::MacFrame> frames,
    std::size_t count, const defense::Detector& detector, dsp::Rng& rng,
    sim::DefenseTap tap) {
  CTC_REQUIRE(!frames.empty());
  sim::DefenseSamples samples;
  for (std::size_t i = 0; i < count; ++i) {
    samples.add(sim::observe_defense_frame(link, frames[i % frames.size()],
                                           detector, rng, tap));
  }
  return samples;
}

}  // namespace ctc::oracles
