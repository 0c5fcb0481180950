// Small statistics helpers shared by the workloads: the tail-percentile
// rule, medians, and an order-sensitive digest of result bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

/// A tail percentile chosen by the rule "the highest percentile at or below
/// the one wanted that still has at least `min_beyond` samples beyond it".
struct TailPercentile {
  bool ok = false;           ///< false when there are too few samples
  double percentile = 0.0;   ///< the percentile actually reported
  double value = 0.0;        ///< the sample at that rank
  std::size_t samples = 0;   ///< sample count the percentile was taken over
  std::size_t beyond = 0;    ///< samples ranked strictly above it
};

/// Nearest-rank percentile: rank k = ceil(p/100 * n) (1-based); beyond it lie
/// n - k samples. Lowers p until n - k >= min_beyond.
TailPercentile tail_percentile(std::vector<double> values, double wanted,
                               std::size_t min_beyond = 10);

/// Median (mean of the middle two for an even count); 0 for no samples.
double median(std::vector<double> values);

/// FNV-1a, 64 bit. Fold values in a fixed order to compare two runs.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void f64(double value) { bytes(&value, sizeof value); }
  void f64s(std::span<const double> values) {
    for (double v : values) f64(v);
  }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench
