#include "dsp/psd.h"

#include <cmath>

#include "dsp/fft.h"
#include "dsp/kernels/kernels.h"
#include "dsp/require.h"
#include "dsp/window.h"

namespace ctc::dsp {

PsdResult welch_psd(std::span<const cplx> signal, PsdConfig config) {
  CTC_REQUIRE(is_power_of_two(config.segment_size) && config.segment_size >= 2);
  CTC_REQUIRE(config.overlap >= 0.0 && config.overlap < 1.0);
  CTC_REQUIRE(config.sample_rate_hz > 0.0);
  CTC_REQUIRE_MSG(signal.size() >= config.segment_size,
                  "signal shorter than one Welch segment");

  const std::size_t n = config.segment_size;
  const std::size_t hop = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(n) * (1.0 - config.overlap)));
  const rvec window = make_window(WindowKind::hann, n);
  double window_power = 0.0;
  for (double w : window) window_power += w * w;

  const FftPlan plan(n);
  rvec accumulated(n, 0.0);
  std::size_t segments = 0;
  cvec buffer(n);
  const kernels::KernelTable& kt = kernels::active();
  for (std::size_t start = 0; start + n <= signal.size(); start += hop) {
    kt.apply_window(signal.data() + start, window.data(), n, buffer.data());
    const cvec spectrum = plan.forward(buffer);
    kt.accumulate_mag2(accumulated.data(), spectrum.data(), n);
    ++segments;
  }
  // Normalize: per-segment |X|^2 / (N * sum w^2) makes sum(power) = E|x|^2.
  const double scale = 1.0 / (static_cast<double>(segments) *
                              static_cast<double>(n) * window_power);

  PsdResult result;
  result.segments_used = segments;
  result.frequency_hz.resize(n);
  result.power.resize(n);
  const double bin_width = config.sample_rate_hz / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    // fftshift: output index i corresponds to FFT bin (i + n/2) mod n.
    const std::size_t bin = (i + n / 2) % n;
    const double frequency =
        (static_cast<double>(i) - static_cast<double>(n) / 2.0) * bin_width;
    result.frequency_hz[i] = frequency;
    result.power[i] = accumulated[bin] * scale;
  }
  return result;
}

double band_power_fraction(const PsdResult& psd, double low_hz, double high_hz) {
  CTC_REQUIRE(low_hz <= high_hz);
  CTC_REQUIRE(!psd.power.empty());
  double in_band = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < psd.power.size(); ++i) {
    total += psd.power[i];
    if (psd.frequency_hz[i] >= low_hz && psd.frequency_hz[i] <= high_hz) {
      in_band += psd.power[i];
    }
  }
  CTC_REQUIRE(total > 0.0);
  return in_band / total;
}

}  // namespace ctc::dsp
