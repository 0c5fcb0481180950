// 802.11g OFDM transmitter (Fig. 2 of the paper): scrambler -> convolutional
// coder -> interleaver -> QAM -> pilot/null insertion -> 64-IFFT -> cyclic
// prefix, preceded by the legacy STF/LTF preamble.
//
// The SIGNAL field is omitted: both ends of our simulated link (and the
// attack) know the rate and length out of band, which is also what the
// paper's GNU Radio prototype assumes.
#pragma once

#include <span>

#include "dsp/types.h"
#include "wifi/convcode.h"
#include "wifi/qam.h"

namespace ctc::wifi {

/// 802.11g rate set (data rate at 20 MHz).
enum class Mcs { mbps6, mbps9, mbps12, mbps18, mbps24, mbps36, mbps48, mbps54 };

Modulation mcs_modulation(Mcs mcs);
CodeRate mcs_code_rate(Mcs mcs);

/// Data bits per OFDM symbol (N_DBPS).
std::size_t data_bits_per_symbol(Mcs mcs);

/// Coded bits per OFDM symbol (N_CBPS = 48 * N_BPSC).
std::size_t coded_bits_per_symbol(Mcs mcs);

struct WifiTxConfig {
  Mcs mcs = Mcs::mbps54;  ///< 64-QAM rate 3/4, the mode the attack rides on
  std::uint8_t scrambler_seed = 0x5D;
  /// Emit the SIGNAL header symbol announcing rate and length. Data-symbol
  /// pilot polarity then starts at index 1 (SIGNAL is index 0).
  bool include_signal_field = false;
  bool normalize_power = true;
};

class WifiTransmitter {
 public:
  explicit WifiTransmitter(WifiTxConfig config = {});

  /// Full PHY chain for a PSDU (MAC bytes). Returns 20 MHz baseband.
  cvec transmit(std::span<const std::uint8_t> psdu) const;

  /// Number of data OFDM symbols needed for a PSDU of `psdu_bytes`.
  std::size_t num_data_symbols(std::size_t psdu_bytes) const;

  /// Modulates pre-built 64-bin frequency grids directly (one per symbol,
  /// already containing pilots). This is the entry point the waveform
  /// emulation attack uses after QAM quantization (Sec. V-A4).
  cvec modulate_grids(std::span<const cvec> grids) const;

  const WifiTxConfig& config() const { return config_; }

 private:
  cvec assemble_frame(std::span<const cplx> signal_symbol,
                      std::span<const cvec> grids) const;

  WifiTxConfig config_;
};

}  // namespace ctc::wifi
