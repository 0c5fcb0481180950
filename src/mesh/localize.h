// Least-squares RSSI localization of the WiFi attacker (the "seek" half of
// hide-and-seek): each sensor inverts the log-distance model
// (channel::log_distance_inverse_m) into a range estimate, and a damped
// Gauss-Newton solve finds the position minimizing the sum of squared range
// residuals  r_i(p) = ||p - s_i|| - d_i.  Initialization is the RSSI-
// weighted centroid (linear received power), which lands inside the convex
// hull of the loudest sensors — close enough that the fixed iteration
// budget converges for every field this repo ships.
//
// Deterministic by construction: no RNG, no clock, fixed iteration order.
#pragma once

#include <cstddef>
#include <span>

#include "channel/pathloss.h"
#include "mesh/geometry.h"

namespace ctc::mesh {

/// One sensor's measurement: where it sits and what power it saw.
struct RssiSample {
  Vec2 position;
  double rssi_dbm = 0.0;
};

struct LocalizeConfig {
  /// Log-distance model the ranges are inverted through. Must match the
  /// forward model that produced the measurements (SensorField shares one
  /// PathLossModel between propagation and localization).
  channel::PathLossModel path_loss;
};

struct LocalizationResult {
  Vec2 position;
  bool converged = false;     ///< step norm fell below tolerance in budget
  std::size_t iterations = 0; ///< Gauss-Newton steps actually taken
  double residual_rms_m = 0.0; ///< RMS range residual at the solution
};

/// Solves for the emitter position from >= 3 samples (throws below that —
/// two ranges leave a mirror ambiguity in the plane).
LocalizationResult localize_rssi(std::span<const RssiSample> samples,
                                 const LocalizeConfig& config);

}  // namespace ctc::mesh
