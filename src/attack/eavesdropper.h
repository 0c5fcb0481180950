// Channel listening (Sec. IV-A): the attack's first stage.
//
// The WiFi attacker parks near the ZigBee link with its radio on the WiFi
// channel (2440 MHz, 20 MHz wide) and records. The ZigBee transmission
// appears 5 MHz below its center; the attacker mixes it to DC, low-passes,
// decimates to 4 MHz, and finds the frame start by correlating against the
// known 802.15.4 SHR (the paper assumes the attacker "knows the beginning
// of the received ZigBee time-domain waveform" — this module earns that
// assumption instead of taking it).
#pragma once

#include <optional>
#include <span>

#include "attack/carrier_allocation.h"
#include "dsp/rng.h"
#include "dsp/types.h"

namespace ctc::attack {

struct EavesdropConfig {
  CarrierPlan plan;
  /// SNR of the overheard ZigBee signal at the attacker (it sits close to
  /// the link, so this is typically high).
  double snr_db = 35.0;
};

struct EavesdropResult {
  bool synchronized = false;
  std::size_t frame_offset = 0;  ///< detected start in the 4 MHz capture
  cvec observed_4mhz;            ///< aligned capture, ready for the emulator
  cvec capture_4mhz;             ///< full unaligned 4 MHz capture
};

class Eavesdropper {
 public:
  explicit Eavesdropper(EavesdropConfig config = {});

  /// Simulates overhearing `zigbee_waveform` (clean 4 MHz baseband from the
  /// victim transmitter) through the attacker's 20 MHz WiFi front end.
  EavesdropResult listen(std::span<const cplx> zigbee_waveform,
                         dsp::Rng& rng) const;

  const EavesdropConfig& config() const { return config_; }

 private:
  EavesdropConfig config_;
};

}  // namespace ctc::attack
