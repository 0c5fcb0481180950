#include "attack/qam_quantize.h"

#include <algorithm>
#include <cmath>

#include "dsp/require.h"

namespace ctc::attack {

namespace {

// Eq. 4 scale search: lower end of the alpha range, coarse grid size and
// golden-section rounds.
constexpr double kMinAlpha = 0.05;
constexpr std::size_t kCoarseSteps = 400;
constexpr std::size_t kRefineRounds = 30;

// Nearest odd level in {-7..7} to value/alpha.
int nearest_level(double value, double alpha) {
  const double scaled = value / alpha;
  int level = 2 * static_cast<int>(std::floor(scaled / 2.0)) + 1;
  if (scaled - static_cast<double>(level) > 1.0) level += 2;
  return std::clamp(level, -7, 7);
}

}  // namespace

std::vector<QuantizedPoint> quantize_to_qam64(std::span<const cplx> points,
                                              double alpha) {
  CTC_REQUIRE(alpha > 0.0);
  std::vector<QuantizedPoint> out;
  out.reserve(points.size());
  for (const cplx& point : points) {
    QuantizedPoint q;
    q.i_level = nearest_level(point.real(), alpha);
    q.q_level = nearest_level(point.imag(), alpha);
    q.value = alpha * cplx{static_cast<double>(q.i_level),
                           static_cast<double>(q.q_level)};
    out.push_back(q);
  }
  return out;
}

double quantization_cost(std::span<const cplx> points, double alpha) {
  const auto quantized = quantize_to_qam64(points, alpha);
  double cost = 0.0;
  for (std::size_t n = 0; n < points.size(); ++n) {
    cost += std::norm(points[n] - quantized[n].value);
  }
  return cost;
}

double optimize_scale(std::span<const cplx> points) {
  CTC_REQUIRE(!points.empty());
  double peak = 0.0;
  for (const cplx& point : points) {
    peak = std::max({peak, std::abs(point.real()), std::abs(point.imag())});
  }
  const double max_alpha = std::max(peak, kMinAlpha + 1e-6);

  // Coarse grid.
  double best_alpha = kMinAlpha;
  double best_cost = quantization_cost(points, best_alpha);
  for (std::size_t i = 1; i < kCoarseSteps; ++i) {
    const double alpha =
        kMinAlpha + (max_alpha - kMinAlpha) * static_cast<double>(i) /
                        static_cast<double>(kCoarseSteps - 1);
    const double cost = quantization_cost(points, alpha);
    if (cost < best_cost) {
      best_cost = cost;
      best_alpha = alpha;
    }
  }

  // Golden-section refinement around the best cell.
  const double cell = (max_alpha - kMinAlpha) /
                      static_cast<double>(kCoarseSteps - 1);
  double lo = std::max(kMinAlpha, best_alpha - cell);
  double hi = std::min(max_alpha, best_alpha + cell);
  constexpr double kInvPhi = 0.6180339887498949;
  double x1 = hi - kInvPhi * (hi - lo);
  double x2 = lo + kInvPhi * (hi - lo);
  double f1 = quantization_cost(points, x1);
  double f2 = quantization_cost(points, x2);
  for (std::size_t round = 0; round < kRefineRounds; ++round) {
    if (f1 < f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - kInvPhi * (hi - lo);
      f1 = quantization_cost(points, x1);
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + kInvPhi * (hi - lo);
      f2 = quantization_cost(points, x2);
    }
  }
  const double refined = (f1 < f2) ? x1 : x2;
  const double refined_cost = std::min(f1, f2);
  return refined_cost < best_cost ? refined : best_alpha;
}

}  // namespace ctc::attack
