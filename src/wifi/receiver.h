// 802.11g OFDM receiver: LTF channel estimation, per-subcarrier
// equalization, pilot common-phase tracking, hard QAM demapping,
// deinterleaving, Viterbi decoding and descrambling.
//
// Two entry points:
//  * receive(): rate and PSDU length known out of band, frame-aligned
//    capture (the mode the attack's tests use);
//  * receive_auto(): full receiver — STF packet detection, CFO estimation
//    and correction, fine LTF timing, SIGNAL-field decode, then payload.
#pragma once

#include <optional>
#include <span>

#include "dsp/types.h"
#include "wifi/signal_field.h"
#include "wifi/sync.h"
#include "wifi/transmitter.h"

namespace ctc::wifi {

struct WifiRxConfig {
  Mcs mcs = Mcs::mbps54;
  std::uint8_t scrambler_seed = 0x5D;
  /// The frame carries a SIGNAL header symbol (pilot polarity shifts by 1).
  bool expect_signal_field = false;
};

struct WifiReceiveResult {
  bytevec psdu;
  std::size_t symbol_count = 0;
  bool ok = false;  ///< enough samples and consistent framing
};

struct WifiAutoReceiveResult {
  bool ok = false;
  SignalField signal;           ///< decoded rate/length header
  bytevec psdu;
  SyncResult sync;              ///< detection offset + CFO estimate
};

class WifiReceiver {
 public:
  explicit WifiReceiver(WifiRxConfig config = {});

  /// Decodes `psdu_bytes` of payload from a synchronized waveform
  /// (sample 0 = first STF sample).
  WifiReceiveResult receive(std::span<const cplx> waveform,
                            std::size_t psdu_bytes) const;

  /// Full chain on an arbitrary capture: detect, synchronize, correct CFO,
  /// decode SIGNAL, decode payload. Ignores config().mcs (the SIGNAL field
  /// supplies it); uses config().scrambler_seed.
  WifiAutoReceiveResult receive_auto(std::span<const cplx> capture,
                                     SyncConfig sync_config = {}) const;

  const WifiRxConfig& config() const { return config_; }

 private:
  /// Channel estimate from the two LTF repeats starting at `ltf_start`.
  cvec estimate_channel(std::span<const cplx> waveform,
                        std::size_t ltf_start) const;

  /// Decodes `num_symbols` data symbols starting at `data_start`.
  bytevec decode_data(std::span<const cplx> waveform, std::size_t data_start,
                      std::span<const cplx> channel, Mcs mcs,
                      std::size_t psdu_bytes, std::size_t polarity_offset) const;

  WifiRxConfig config_;
};

}  // namespace ctc::wifi
