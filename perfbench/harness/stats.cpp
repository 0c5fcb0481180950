#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

TailPercentile tail_percentile(std::vector<double> values, double wanted,
                               std::size_t min_beyond) {
  TailPercentile result;
  const std::size_t n = values.size();
  result.samples = n;
  if (n <= min_beyond) return result;
  std::sort(values.begin(), values.end());
  // 1-based nearest rank of the wanted percentile, clamped to [1, n].
  auto rank = static_cast<std::size_t>(
      std::ceil(wanted / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  const std::size_t max_rank = n - min_beyond;
  if (rank <= max_rank) {
    result.percentile = wanted;
  } else {
    rank = max_rank;
    result.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  }
  result.ok = true;
  result.value = values[rank - 1];
  result.beyond = n - rank;
  return result;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ULL;
  }
}

}  // namespace perfbench
