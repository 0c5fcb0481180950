// FIR filter design and application.
//
// The resampler (4 MHz ZigBee baseband <-> 20 MHz WiFi baseband) and the
// ZigBee receiver front-end (2 MHz channel filter inside the 20 MHz band)
// are built on windowed-sinc lowpass filters from this module.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"
#include "dsp/window.h"

namespace ctc::dsp {

/// Designs an odd-length linear-phase lowpass FIR via the windowed-sinc
/// method. `cutoff` is the -6 dB edge as a fraction of the sample rate,
/// in (0, 0.5). Taps are normalized to unity DC gain.
rvec design_lowpass(double cutoff, std::size_t num_taps,
                    WindowKind window = WindowKind::hamming);

/// Full convolution of `signal` with real `taps`
/// (output length = signal + taps - 1). Dispatches between the direct
/// time-domain form and FFT convolution based on use_fft_convolution();
/// both are deterministic, but the two paths differ in the last few ULPs
/// (floating-point summation order), so bit-exact consumers must pin one
/// path via convolve_direct()/convolve_fft().
cvec convolve(std::span<const cplx> signal, std::span<const double> taps);

/// O(n*t) time-domain convolution through the dispatched dsp::kernels
/// fir_mac (AVX2 gather with FMA when available). Exactly time-invariant at
/// every dispatch level: outputs with a full tap window depend only on the
/// window's sample values, never on position.
cvec convolve_direct(std::span<const cplx> signal, std::span<const double> taps);

/// FFT convolution: zero-pad both operands to the next power of two >=
/// n + t - 1, multiply spectra, inverse transform. Uses the shared FftPlan
/// cache and thread-local scratch, so steady-state calls do not allocate.
cvec convolve_fft(std::span<const cplx> signal, std::span<const double> taps);

/// Crossover policy for convolve(): FFT wins once the direct form's
/// multiply-accumulate count n*t clears a threshold and the tap count is
/// non-trivial (short filters stay direct — their working set fits in
/// registers and the FFT's constant factor loses). The constants were tuned
/// with bench/perf_hotpath (see docs/PERFORMANCE.md).
bool use_fft_convolution(std::size_t signal_size, std::size_t taps_size);

/// Convolution path selection for callers that care about more than speed.
/// `automatic` applies use_fft_convolution(); `direct` pins the time-domain
/// form. Direct convolution is exactly time-invariant — identical input
/// segments produce bitwise-identical output segments — which downstream
/// memoization (the emulator's slot LUT) keys on; the FFT form is only
/// ULP-equivalent and position-dependent, so such callers must pin `direct`.
enum class ConvolvePolicy { automatic, direct, fft };

/// "Same"-length filtering: convolution trimmed so the output is aligned with
/// the input (group delay of (taps-1)/2 samples removed). Taps length must be
/// odd so the delay is an integer.
cvec filter_same(std::span<const cplx> signal, std::span<const double> taps,
                 ConvolvePolicy policy = ConvolvePolicy::automatic);

/// Streaming FIR filter with persistent state across process() calls.
/// Large blocks through long filters take the FFT convolution path (same
/// crossover policy as convolve()); short blocks stay in the direct form.
class FirFilter {
 public:
  explicit FirFilter(rvec taps);

  /// Filters a block, continuing from previous state (no delay compensation).
  cvec process(std::span<const cplx> block);

  /// Clears internal history.
  void reset();

  std::size_t num_taps() const { return taps_.size(); }

 private:
  rvec taps_;
  cvec history_;  // circular buffer of the last num_taps-1 inputs
  std::size_t pos_ = 0;
};

}  // namespace ctc::dsp
