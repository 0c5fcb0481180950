// Power spectral density estimation (Welch's method).
//
// Used by the spectrum bench to show the 2 MHz ZigBee channel sitting
// inside the 20 MHz WiFi band (the coexistence picture of the paper's
// Figs. 3-4), and generally useful for inspecting the waveforms this
// library produces.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace ctc::dsp {

struct PsdConfig {
  std::size_t segment_size = 256;   ///< power of two
  double overlap = 0.5;             ///< fraction of segment_size, in [0, 1)
  double sample_rate_hz = 1.0;      ///< scales the frequency axis only
};

struct PsdResult {
  rvec frequency_hz;  ///< bin centers, DC-centered (fftshifted), ascending
  rvec power;         ///< linear power per bin, same length
  std::size_t segments_used = 0;
};

/// Welch PSD (Hann-windowed segments) of a complex baseband signal. Requires
/// signal.size() >= segment_size. Total power is normalized so that
/// sum(power) ~= mean |x|^2 (window-compensated).
PsdResult welch_psd(std::span<const cplx> signal, PsdConfig config = {});

/// Fraction of total power inside [low_hz, high_hz] (two-sided band edges
/// on the DC-centered axis).
double band_power_fraction(const PsdResult& psd, double low_hz, double high_hz);

}  // namespace ctc::dsp
