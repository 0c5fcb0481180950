#include "mesh/localize.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "dsp/require.h"

namespace ctc::mesh {

namespace {

/// Gauss-Newton iteration budget.
constexpr std::size_t kMaxIterations = 25;
/// Stop once the Gauss-Newton step norm falls below this (m).
constexpr double kToleranceM = 1e-9;
/// Ranges and sensor-to-estimate distances are clamped to this floor so a
/// sensor sitting on top of the estimate cannot divide by zero.
constexpr double kMinDistanceM = 1e-3;

/// RSSI-weighted centroid: weights are linear received power, so the
/// loudest sensors — the ones nearest the emitter — dominate the seed.
Vec2 weighted_centroid(std::span<const RssiSample> samples) {
  double weight_sum = 0.0;
  Vec2 centroid;
  for (const RssiSample& sample : samples) {
    const double weight = std::pow(10.0, sample.rssi_dbm / 10.0);
    weight_sum += weight;
    centroid.x += weight * sample.position.x;
    centroid.y += weight * sample.position.y;
  }
  if (weight_sum > 0.0) {
    centroid.x /= weight_sum;
    centroid.y /= weight_sum;
  }
  return centroid;
}

}  // namespace

LocalizationResult localize_rssi(std::span<const RssiSample> samples,
                                 const LocalizeConfig& config) {
  CTC_REQUIRE_MSG(samples.size() >= 3,
                  "RSSI localization needs at least 3 sensors");

  std::vector<double> ranges;
  ranges.reserve(samples.size());
  for (const RssiSample& sample : samples) {
    ranges.push_back(std::max(
        config.path_loss.distance_for_rssi(sample.rssi_dbm),
        kMinDistanceM));
  }

  LocalizationResult result;
  result.position = weighted_centroid(samples);
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    // Normal equations of the linearized problem: J^T J dp = -J^T r with
    // J_i = (p - s_i) / ||p - s_i||. A tiny Levenberg diagonal keeps the
    // 2x2 solve well-posed when the field is nearly collinear.
    double jtj00 = 0.0, jtj01 = 0.0, jtj11 = 0.0;
    double jtr0 = 0.0, jtr1 = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const double dx = result.position.x - samples[i].position.x;
      const double dy = result.position.y - samples[i].position.y;
      const double dist = std::max(std::hypot(dx, dy), kMinDistanceM);
      const double jx = dx / dist;
      const double jy = dy / dist;
      const double residual = dist - ranges[i];
      jtj00 += jx * jx;
      jtj01 += jx * jy;
      jtj11 += jy * jy;
      jtr0 += jx * residual;
      jtr1 += jy * residual;
    }
    const double damping = 1e-9 * (jtj00 + jtj11) + 1e-12;
    jtj00 += damping;
    jtj11 += damping;
    const double det = jtj00 * jtj11 - jtj01 * jtj01;
    if (det == 0.0) break;
    const double step_x = -(jtj11 * jtr0 - jtj01 * jtr1) / det;
    const double step_y = -(jtj00 * jtr1 - jtj01 * jtr0) / det;
    result.position.x += step_x;
    result.position.y += step_y;
    ++result.iterations;
    if (std::hypot(step_x, step_y) < kToleranceM) {
      result.converged = true;
      break;
    }
  }

  double residual_sq_sum = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double dist = std::max(
        distance(result.position, samples[i].position), kMinDistanceM);
    const double residual = dist - ranges[i];
    residual_sq_sum += residual * residual;
  }
  result.residual_rms_m =
      std::sqrt(residual_sq_sum / static_cast<double>(samples.size()));
  return result;
}

}  // namespace ctc::mesh
