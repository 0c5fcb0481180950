#include "zigbee/csma.h"

#include "dsp/require.h"
#include "dsp/stats.h"

namespace ctc::zigbee {

double energy_detect(std::span<const cplx> window) {
  CTC_REQUIRE(!window.empty());
  return dsp::average_power(window);
}

bool channel_busy(std::span<const cplx> window, double threshold_power) {
  CTC_REQUIRE(threshold_power > 0.0);
  return energy_detect(window) > threshold_power;
}

CsmaResult csma_ca(const std::function<bool(double)>& busy_at, dsp::Rng& rng,
                   CsmaConfig config) {
  CTC_REQUIRE(config.mac_min_be <= config.mac_max_be);
  CTC_REQUIRE(config.mac_max_be < 16);
  CsmaResult result;
  unsigned backoff_exponent = config.mac_min_be;
  double now_us = 0.0;
  for (unsigned attempt = 0; attempt <= kMaxCsmaBackoffs; ++attempt) {
    const std::uint64_t slots =
        rng.uniform_index((std::uint64_t{1} << backoff_exponent));
    now_us += static_cast<double>(slots) * kBackoffPeriodUs;
    ++result.backoffs;
    if (!busy_at(now_us)) {
      result.success = true;
      result.delay_us = now_us;
      return result;
    }
    backoff_exponent = std::min(backoff_exponent + 1, config.mac_max_be);
  }
  result.delay_us = now_us;
  return result;
}

std::function<bool(double)> interval_oracle(
    std::vector<std::pair<double, double>> busy_intervals) {
  return [intervals = std::move(busy_intervals)](double t_us) {
    for (const auto& [start, end] : intervals) {
      if (t_us >= start && t_us < end) return true;
    }
    return false;
  };
}

}  // namespace ctc::zigbee
