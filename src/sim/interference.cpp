#include "sim/interference.h"

#include "dsp/stats.h"
#include "wifi/transmitter.h"

namespace ctc::sim {

namespace {

/// Interferer burst length at 4 MHz (100 us).
constexpr std::size_t kBurstSamples = 400;

}  // namespace

cvec add_wifi_interference(std::span<const cplx> signal,
                           const WifiInterferenceConfig& config, dsp::Rng& rng) {
  // Generate one long-enough WiFi frame of random payload at 20 MHz and
  // bring its in-channel slice down to the ZigBee baseband.
  const std::size_t needed_20mhz = signal.size() * 5 + 400;
  wifi::WifiTxConfig tx_config;
  tx_config.mcs = wifi::Mcs::mbps54;
  const wifi::WifiTransmitter interferer(tx_config);
  bytevec psdu(std::min<std::size_t>(1000, needed_20mhz / 4 / 8 + 64));
  for (auto& b : psdu) b = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  cvec wifi_wave = interferer.transmit(psdu);
  while (wifi_wave.size() < needed_20mhz) {
    wifi_wave.insert(wifi_wave.end(), wifi_wave.begin(),
                     wifi_wave.begin() + static_cast<long>(
                         std::min(wifi_wave.size(), needed_20mhz - wifi_wave.size())));
  }
  wifi_wave.resize(needed_20mhz);
  cvec in_channel = attack::wifi_band_to_zigbee_baseband(wifi_wave, config.plan);
  in_channel.resize(signal.size(), cplx{0.0, 0.0});

  // Scale the in-channel footprint to the requested SIR vs the (unit-power)
  // signal, then gate it with random bursts.
  const double footprint_power = dsp::average_power(in_channel);
  double scale = 0.0;
  if (footprint_power > 0.0) {
    scale = std::sqrt(dsp::from_db(-config.sir_db) / footprint_power);
  }
  cvec out(signal.begin(), signal.end());
  std::size_t index = 0;
  while (index < out.size()) {
    const bool active = rng.uniform() < config.duty_cycle;
    const std::size_t end = std::min(out.size(), index + kBurstSamples);
    if (active) {
      for (std::size_t i = index; i < end; ++i) out[i] += scale * in_channel[i];
    }
    index = end;
  }
  return out;
}

}  // namespace ctc::sim
