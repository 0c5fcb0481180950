// Cross-technology interference: background WiFi traffic bleeding into the
// ZigBee channel.
//
// The paper assumes "no other devices occupy the overlapped spectrum"
// during the attack (Sec. IV-A). This module drops that assumption so the
// coexistence ablation can measure how ordinary (non-attack) WiFi traffic
// degrades the link and whether it confuses the defense: a WiFi OFDM burst
// is generated at the 2440 MHz center, and the 2 MHz slice that lands in
// the victim's channel is added at a chosen signal-to-interference ratio.
#pragma once

#include <span>

#include "attack/carrier_allocation.h"
#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::sim {

struct WifiInterferenceConfig {
  attack::CarrierPlan plan;  ///< frequency layout (ZigBee ch 17 / WiFi 2440)
  double sir_db = 10.0;      ///< signal-to-interference ratio in-channel
  /// Fraction of time the interferer transmits (100 us bursts).
  double duty_cycle = 0.5;
};

/// Adds the in-channel footprint of random WiFi traffic to a unit-power
/// ZigBee baseband signal (4 MHz).
cvec add_wifi_interference(std::span<const cplx> signal,
                           const WifiInterferenceConfig& config, dsp::Rng& rng);

}  // namespace ctc::sim
