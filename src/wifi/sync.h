// 802.11 packet detection and synchronization.
//
// Classic Schmidl-Cox-style front end:
//  * packet detection + coarse timing from the 16-sample periodicity of the
//    short training field (delay-and-correlate plateau);
//  * coarse CFO from the angle of the delay-16 STF autocorrelation
//    (unambiguous to +-625 kHz at 20 MHz);
//  * fine timing by cross-correlation against the known LTF symbol;
//  * fine CFO from the delay-64 correlation across the two LTF repeats
//    (unambiguous to +-156.25 kHz).
#pragma once

#include <optional>
#include <span>

#include "dsp/types.h"

namespace ctc::wifi {

struct SyncResult {
  std::size_t frame_start = 0;  ///< index of the first STF sample
  double cfo_hz = 0.0;          ///< estimated carrier frequency offset
  double plateau_metric = 0.0;  ///< detection confidence in [0, 1]
};

struct SyncConfig {
  double sample_rate_hz = 20.0e6;
};

/// Finds a WiFi frame in a capture. Returns nullopt when no STF plateau
/// crosses the threshold.
std::optional<SyncResult> synchronize_wifi(std::span<const cplx> capture,
                                           SyncConfig config = {});

/// Removes a CFO estimate from a capture (helper for receivers).
cvec correct_cfo(std::span<const cplx> capture, double cfo_hz,
                 double sample_rate_hz);

}  // namespace ctc::wifi
