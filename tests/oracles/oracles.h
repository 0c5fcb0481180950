// Reference implementations ("oracles") for the equivalence tests and the
// perf_hotpath reference columns.
//
// Each oracle is the plain, unoptimized form of a production fast path,
// rebuilt from public calls only, so a test can pin the fast path against
// it bit for bit without the production types carrying a switch back to
// the slow path. Nothing under src/ links this library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "attack/emulator.h"
#include "defense/detector.h"
#include "dsp/rng.h"
#include "dsp/types.h"
#include "sim/defense_run.h"
#include "sim/link.h"
#include "sim/metrics.h"
#include "zigbee/dsss.h"
#include "zigbee/receiver.h"

namespace ctc::oracles {

/// Byte-level 16 x 32 Hamming loop over zigbee::chip_table(); the oracle
/// for the packed zigbee::despread_block() (same distances, same
/// lowest-symbol tie-break).
zigbee::DespreadResult despread_block(std::span<const std::uint8_t> chips,
                                      std::size_t threshold);

/// Per-chip differential matcher; the oracle for the packed
/// zigbee::despread_differential_block(). `previous_chip` > 1 excludes
/// chip 0 from the distance.
zigbee::DespreadResult despread_differential_block(
    std::span<const double> freq_chips, std::uint8_t previous_chip,
    std::size_t threshold);

/// Receiver with the per-call clock-recovery search: for every tau it
/// re-derives the fractional-delay SHR reference and its window energy,
/// scores the capture with dot_conj, undoes the winning delay and decodes
/// the retimed capture with timing recovery off. The oracle for
/// zigbee::Receiver's precomputed timing grid: receive() rebuilds the full
/// ReceiveResult bit for bit.
class PerCallTimingReceiver {
 public:
  /// `config.timing_recovery` must be true.
  explicit PerCallTimingReceiver(const zigbee::ReceiverConfig& config);

  zigbee::ReceiveResult receive(std::span<const cplx> waveform) const;

 private:
  zigbee::ReceiverConfig config_;
  cvec shr_reference_;
  zigbee::Receiver plain_;  ///< same config, timing_recovery off
};

/// Emulation without the per-slot LUT: upsample, pad to whole WiFi slots,
/// choose bins and alpha, then emulate_symbol() on every slot and decimate.
/// The oracle for attack::WaveformEmulator::emulate's memoized slots.
attack::EmulationResult emulate_uncached(const attack::EmulatorConfig& config,
                                         std::span<const cplx> observed_4mhz);

/// Uncached clean-waveform synthesis: TX -> emulator -> optional RF path ->
/// normalize_power. The oracle for sim::Link's memoized clean_waveform().
cvec clean_waveform(const sim::LinkConfig& config,
                    const zigbee::MacFrame& frame);

/// Serial trial loops threading one caller-owned generator through the
/// trials in order — for tests that share one stream across several calls.
/// Production code runs trials through the sim::TrialEngine overloads.
sim::FrameStats run_frames(const sim::Link& link,
                           std::span<const zigbee::MacFrame> frames,
                           std::size_t count, dsp::Rng& rng);

sim::DefenseSamples collect_defense_samples(
    const sim::Link& link, std::span<const zigbee::MacFrame> frames,
    std::size_t count, const defense::Detector& detector, dsp::Rng& rng,
    sim::DefenseTap tap = sim::DefenseTap::discriminator);

}  // namespace ctc::oracles
