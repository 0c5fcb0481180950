#include "attack/eavesdropper.h"

#include "channel/awgn.h"
#include "dsp/resample.h"
#include "dsp/stats.h"
#include "zigbee/receiver.h"

namespace ctc::attack {

namespace {

/// Noise-only samples recorded before the frame arrives (at 20 MHz).
constexpr std::size_t kLeadInSamples = 900;
/// How far into the capture to search for the frame start (at 4 MHz).
constexpr std::size_t kMaxSyncOffset = 2000;

}  // namespace

Eavesdropper::Eavesdropper(EavesdropConfig config) : config_(config) {}

EavesdropResult Eavesdropper::listen(std::span<const cplx> zigbee_waveform,
                                     dsp::Rng& rng) const {
  EavesdropResult result;

  // Over the air: what the attacker's 20 MHz front end sees — the ZigBee
  // signal at -5 MHz, preceded by a noise-only lead-in.
  const cvec at_20mhz = dsp::upsample(zigbee_waveform, 5);
  const cvec shifted = dsp::frequency_shift(at_20mhz, config_.plan.offset_hz(),
                                            config_.plan.wifi_sample_rate_hz);
  cvec capture(kLeadInSamples, cplx{0.0, 0.0});
  capture.insert(capture.end(), shifted.begin(), shifted.end());
  capture = channel::add_awgn(capture, config_.snr_db, rng);

  // Attacker front end: mix the ZigBee band to DC and decimate to 4 MHz.
  result.capture_4mhz = wifi_band_to_zigbee_baseband(capture, config_.plan);

  // Frame sync against the 802.15.4 SHR.
  const zigbee::Receiver reference;
  const auto offset = reference.synchronize(result.capture_4mhz, kMaxSyncOffset);
  if (!offset) return result;
  result.synchronized = true;
  result.frame_offset = *offset;
  result.observed_4mhz.assign(result.capture_4mhz.begin() + static_cast<long>(*offset),
                              result.capture_4mhz.end());
  // Trim trailing filter/decimation padding so downstream processing sees
  // the same frame extent the victim transmitted.
  if (result.observed_4mhz.size() > zigbee_waveform.size()) {
    result.observed_4mhz.resize(zigbee_waveform.size());
  }
  return result;
}

}  // namespace ctc::attack
