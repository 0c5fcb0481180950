// Channel access: energy detection (CCA mode 1) and unslotted CSMA/CA
// (Clause 6.2.5.1).
//
// Sec. IV-B of the paper: before replaying the emulated waveform, the WiFi
// attacker "checks the channel availability using CSMA/CA" and senses
// whether the ZigBee devices are currently communicating. These primitives
// model that step, and double as the victim network's own channel access.
#pragma once

#include <functional>
#include <span>

#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::zigbee {

/// Average received power of a CCA window (8 symbol periods = 128 us at the
/// 2450 MHz PHY; any window the caller provides works).
double energy_detect(std::span<const cplx> window);

/// CCA mode 1: busy when the measured energy exceeds the threshold.
/// The 802.15.4 ED threshold is at most 10 dB above receiver sensitivity;
/// callers express it as linear power at baseband.
bool channel_busy(std::span<const cplx> window, double threshold_power);

/// macMaxCSMABackoffs: backoffs after the first before giving up.
constexpr unsigned kMaxCsmaBackoffs = 4;
/// aUnitBackoffPeriod: 20 symbols at 62.5 ksym/s.
constexpr double kBackoffPeriodUs = 320.0;

struct CsmaConfig {
  unsigned mac_min_be = 3;        ///< initial backoff exponent
  unsigned mac_max_be = 5;
};

struct CsmaResult {
  bool success = false;    ///< channel found idle within the attempt budget
  unsigned backoffs = 0;   ///< CCA attempts performed
  double delay_us = 0.0;   ///< total time spent backing off
};

/// Runs unslotted CSMA/CA against a channel-occupancy oracle:
/// `busy_at(t_us)` answers whether the medium is busy at absolute time
/// `t_us` (relative to the call). Deterministic given the RNG.
CsmaResult csma_ca(const std::function<bool(double)>& busy_at,
                   dsp::Rng& rng, CsmaConfig config = {});

/// Builds a busy-oracle from half-open busy intervals [start_us, end_us).
std::function<bool(double)> interval_oracle(
    std::vector<std::pair<double, double>> busy_intervals);

}  // namespace ctc::zigbee
