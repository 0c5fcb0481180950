#include "wifi/sync.h"

#include <cmath>

#include "dsp/kernels/kernels.h"
#include "dsp/require.h"
#include "dsp/resample.h"
#include "wifi/ofdm.h"

namespace ctc::wifi {

namespace {

// Normalized delay-16 autocorrelation over a 64-sample window.
struct Plateau {
  double metric = 0.0;
  cplx correlation{0.0, 0.0};
};

Plateau stf_metric(std::span<const cplx> capture, std::size_t d) {
  constexpr std::size_t kDelay = 16;
  constexpr std::size_t kWindow = 64;
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const cplx p =
      kt.dot_conj(capture.data() + d, capture.data() + d + kDelay, kWindow);
  const double r = kt.energy(capture.data() + d + kDelay, kWindow);
  Plateau out;
  out.correlation = p;
  out.metric = (r > 0.0) ? std::abs(p) / r : 0.0;
  return out;
}

}  // namespace

cvec correct_cfo(std::span<const cplx> capture, double cfo_hz,
                 double sample_rate_hz) {
  return dsp::frequency_shift(capture, -cfo_hz, sample_rate_hz);
}

std::optional<SyncResult> synchronize_wifi(std::span<const cplx> capture,
                                           SyncConfig config) {
  constexpr std::size_t kStfDelay = 16;
  constexpr std::size_t kWindow = 64;
  constexpr std::size_t kLtfSymbol = 64;
  // Detection threshold on the normalized delay-16 autocorrelation, and
  // how many samples to search.
  constexpr double kDetectionThreshold = 0.8;
  constexpr std::size_t kMaxSearch = 1u << 16;
  if (capture.size() < 400) return std::nullopt;
  const std::size_t search_end =
      std::min(kMaxSearch, capture.size() - kWindow - kStfDelay);

  // 1. Packet detection: first run of above-threshold delay-16 metric.
  bool detected = false;
  std::size_t coarse_start = 0;
  Plateau at_coarse;
  std::size_t run = 0;
  for (std::size_t d = 0; d < search_end; ++d) {
    const Plateau plateau = stf_metric(capture, d);
    if (plateau.metric > kDetectionThreshold) {
      if (run == 0) {
        coarse_start = d;
        at_coarse = plateau;
      }
      if (++run >= 32) {  // a genuine STF plateau persists
        detected = true;
        break;
      }
    } else {
      run = 0;
    }
  }
  if (!detected) return std::nullopt;

  // 2. Coarse CFO from the plateau correlation angle.
  const double coarse_cfo = -std::arg(at_coarse.correlation) *
                            config.sample_rate_hz / (kTwoPi * kStfDelay);
  const cvec corrected = correct_cfo(capture, coarse_cfo, config.sample_rate_hz);

  // 3. Fine timing: cross-correlate with the known LTF symbol.
  const cvec ltf = make_ltf();
  const std::span<const cplx> reference(ltf.data() + 32, kLtfSymbol);
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  const double reference_energy = kt.energy(reference.data(), kLtfSymbol);

  const std::size_t search_from = coarse_start;
  const std::size_t search_to =
      std::min(capture.size() - 2 * kLtfSymbol, search_from + 360);
  std::size_t best = search_from;
  double best_metric = 0.0;
  auto ltf_corr = [&](std::size_t p) {
    const cplx acc =
        kt.dot_conj(corrected.data() + p, reference.data(), kLtfSymbol);
    const double energy = kt.energy(corrected.data() + p, kLtfSymbol);
    return energy > 0.0 ? std::norm(acc) / (energy * reference_energy) : 0.0;
  };
  for (std::size_t p = search_from; p < search_to; ++p) {
    const double metric = ltf_corr(p);
    if (metric > best_metric) {
      best_metric = metric;
      best = p;
    }
  }
  if (best_metric < 0.5) return std::nullopt;
  // Disambiguate which LTF repeat we found: the first repeat has another
  // equally strong copy 64 samples later.
  const bool is_first_repeat =
      best + 3 * kLtfSymbol <= capture.size() && ltf_corr(best + kLtfSymbol) > 0.5;
  const std::size_t ltf_symbol1 = is_first_repeat ? best : best - kLtfSymbol;
  if (ltf_symbol1 < 192) return std::nullopt;

  // 4. Fine CFO across the two LTF repeats.
  const cplx p64 = kt.dot_conj(corrected.data() + ltf_symbol1,
                               corrected.data() + ltf_symbol1 + kLtfSymbol,
                               kLtfSymbol);
  const double fine_cfo =
      -std::arg(p64) * config.sample_rate_hz / (kTwoPi * kLtfSymbol);

  SyncResult result;
  result.frame_start = ltf_symbol1 - 192;  // STF(160) + long CP(32)
  result.cfo_hz = coarse_cfo + fine_cfo;
  result.plateau_metric = at_coarse.metric;
  return result;
}

}  // namespace ctc::wifi
