#include "attack/emulator.h"

#include <cmath>
#include <string>
#include <unordered_map>

#include "dsp/fft.h"
#include "dsp/require.h"
#include "dsp/resample.h"
#include "sim/telemetry.h"
#include "wifi/ofdm.h"

namespace ctc::attack {

namespace {
constexpr std::size_t kSlot = wifi::kSymbolLength;        // 80
constexpr std::size_t kFft = wifi::kNumSubcarriers;       // 64
constexpr std::size_t kCp = wifi::kCyclicPrefixLength;    // 16
}  // namespace

WaveformEmulator::WaveformEmulator(EmulatorConfig config)
    : config_(std::move(config)) {
  CTC_REQUIRE(config_.interpolation >= 1);
  if (config_.alpha) CTC_REQUIRE(*config_.alpha > 0.0);
}

cvec WaveformEmulator::emulate_symbol(std::span<const cplx> slot80,
                                      std::span<const std::size_t> kept_bins,
                                      double alpha,
                                      SymbolDiagnostics* diagnostics,
                                      cvec* grid_out) const {
  CTC_REQUIRE(slot80.size() == kSlot);
  static const dsp::FftPlan plan(kFft);

  // Step 2: FFT of the last 3.2 us (the first 0.8 us is sacrificed to the CP).
  const cvec spectrum = plan.forward(slot80.subspan(kCp, kFft));

  // Step 3 + 4: keep and quantize the chosen bins, zero the rest.
  cvec grid(kFft, cplx{0.0, 0.0});
  cvec kept_points;
  kept_points.reserve(kept_bins.size());
  for (std::size_t bin : kept_bins) {
    CTC_REQUIRE(bin < kFft);
    kept_points.push_back(spectrum[bin]);
  }
  const auto quantized = quantize_to_qam64(kept_points, alpha);
  for (std::size_t n = 0; n < kept_bins.size(); ++n) {
    grid[kept_bins[n]] = quantized[n].value;
  }

  if (diagnostics != nullptr) {
    diagnostics->alpha = alpha;
    diagnostics->quantization_error = 0.0;
    for (std::size_t n = 0; n < kept_points.size(); ++n) {
      diagnostics->quantization_error += std::norm(kept_points[n] - quantized[n].value);
    }
    diagnostics->discarded_energy = 0.0;
    for (std::size_t k = 0; k < kFft; ++k) {
      if (std::abs(grid[k]) == 0.0) diagnostics->discarded_energy += std::norm(spectrum[k]);
    }
  }
  if (grid_out != nullptr) *grid_out = grid;

  // Step 5: IFFT + cyclic prefix.
  const cvec useful = plan.inverse(grid);
  cvec symbol;
  symbol.reserve(kSlot);
  symbol.insert(symbol.end(), useful.end() - kCp, useful.end());
  symbol.insert(symbol.end(), useful.begin(), useful.end());
  return symbol;
}

EmulationResult WaveformEmulator::emulate(std::span<const cplx> observed_4mhz) const {
  CTC_REQUIRE_MSG(!observed_4mhz.empty(), "nothing to emulate");
  CTC_TELEM_TIMER("attack", "emulate");
  CTC_TELEM_COUNT("attack", "frames", 1);
  EmulationResult result;

  // Step 1: interpolate to the WiFi sample rate.
  cvec upsampled = dsp::upsample(observed_4mhz, config_.interpolation);
  // Pad so the frame covers whole WiFi-symbol slots.
  const std::size_t remainder = upsampled.size() % kSlot;
  if (remainder != 0) upsampled.resize(upsampled.size() + (kSlot - remainder), cplx{0.0, 0.0});

  // Choose subcarriers.
  if (config_.kept_bins.empty()) {
    SubcarrierSelector selector(config_.selection);
    result.kept_bins = selector.select_from_waveform(upsampled).bins;
  } else {
    result.kept_bins = config_.kept_bins;
  }

  // Choose the QAM scale. When optimizing, pool the kept frequency points of
  // every symbol so one alpha serves the whole frame (the attacker fixes the
  // constellation scale per transmission).
  double alpha;
  if (config_.alpha) {
    alpha = *config_.alpha;
  } else {
    static const dsp::FftPlan plan(kFft);
    cvec pooled;
    for (std::size_t start = 0; start + kSlot <= upsampled.size(); start += kSlot) {
      const cvec spectrum = plan.forward(
          std::span<const cplx>(upsampled).subspan(start + kCp, kFft));
      for (std::size_t bin : result.kept_bins) pooled.push_back(spectrum[bin]);
    }
    alpha = optimize_scale(pooled);
  }

  // Per-symbol emulation. The DSSS chip alphabet repeats, so identical slots
  // recur throughout the frame; cache results keyed on the exact slot
  // samples (alpha and kept_bins are fixed per frame, so the slot fully
  // determines the output).
  struct SlotResult {
    cvec symbol;
    SymbolDiagnostics diagnostics;
    cvec grid;
  };
  std::unordered_map<std::string, SlotResult> lut;
  result.wifi_waveform_20mhz.reserve(upsampled.size());
  for (std::size_t start = 0; start + kSlot <= upsampled.size(); start += kSlot) {
    const auto slot = std::span<const cplx>(upsampled).subspan(start, kSlot);
    std::string key(reinterpret_cast<const char*>(slot.data()),
                    kSlot * sizeof(cplx));
    auto it = lut.find(key);
    if (it != lut.end()) {
      CTC_TELEM_COUNT("attack", "lut_hits", 1);
    } else {
      CTC_TELEM_COUNT("attack", "lut_misses", 1);
      SlotResult fresh;
      fresh.symbol = emulate_symbol(slot, result.kept_bins, alpha,
                                    &fresh.diagnostics, &fresh.grid);
      it = lut.emplace(std::move(key), std::move(fresh)).first;
    }
    const SlotResult& cached = it->second;
    const SymbolDiagnostics& diagnostics = cached.diagnostics;
    result.wifi_waveform_20mhz.insert(result.wifi_waveform_20mhz.end(),
                                      cached.symbol.begin(), cached.symbol.end());
    result.diagnostics.push_back(diagnostics);
    result.symbol_grids.push_back(cached.grid);
    // The paper's three distortion sources (Sec. V), one metric each: the
    // 0.8 us head each symbol sacrifices to the cyclic prefix, the OFDM
    // bins zeroed by subcarrier truncation, and the energy the 64-QAM grid
    // snap discards.
    CTC_TELEM_COUNT("attack", "symbols", 1);
    CTC_TELEM_COUNT("attack", "cp_samples_overwritten", kCp);
    CTC_TELEM_COUNT("attack", "subcarriers_dropped",
                    kFft - result.kept_bins.size());
    CTC_TELEM_GAUGE("attack", "qam_error_energy",
                    diagnostics.quantization_error);
    CTC_TELEM_GAUGE("attack", "truncated_energy", diagnostics.discarded_energy);
  }
  CTC_TELEM_GAUGE("attack", "alpha", alpha);

  // What the ZigBee front end sees: 2 MHz channel filter + decimation.
  result.emulated_4mhz = dsp::decimate(result.wifi_waveform_20mhz, config_.interpolation);
  result.emulated_4mhz.resize(observed_4mhz.size(), cplx{0.0, 0.0});
  return result;
}

}  // namespace ctc::attack
