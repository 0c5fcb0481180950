// trial-fresh: a closed-loop Monte Carlo over the trial engine in which
// every trial sends a frame the program has never seen.
//
// Each round makes two library calls of kFramesPerCall fresh frames each:
// sim::collect_defense_samples over a new emulated Link, then over a new
// authentic one (AWGN 15 dB, ZigBee RX, cumulant defense). That is the
// shape of the library's production caller: a campaign work unit
// (src/campaign/experiment.cpp, run_unit) builds one Link and makes one
// call over a CampaignSpec::workload_frames workload, 100 frames by
// default. The calls are timed whole, Link::prime included, and the
// waveform memo stays on, as in production. Peak RSS therefore holds one
// 100-frame memo and does not depend on how many rounds fit into the run.
//
// The traced run splits each call into its public halves (Link::prime,
// then the engine fan-out) and adds two probes that replay the hidden
// layers on the same inputs through their public functions: the synthesis
// probe (ZigBee TX, then upsample, subcarrier selection, QAM scale,
// per-symbol emulation and decimation) must reproduce
// Link::clean_waveform bit for bit, and the trial probe (channel, ZigBee
// RX, defense) must reproduce the engine's DefenseSamples bit for bit.
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "attack/emulator.h"
#include "attack/qam_quantize.h"
#include "attack/subcarrier_select.h"
#include "common.h"
#include "defense/detector.h"
#include "dsp/fft.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "dsp/stats.h"
#include "sim/defense_run.h"
#include "sim/engine.h"
#include "sim/link.h"
#include "sim/telemetry.h"
#include "truth.h"
#include "wifi/ofdm.h"
#include "zigbee/receiver.h"
#include "zigbee/transmitter.h"

namespace perfbench {

namespace {

using namespace ctc;

constexpr std::size_t kFramesPerCall = 100;
constexpr std::size_t kWarmupFrames = 4;
constexpr std::size_t kPayloadBytes = 20;
constexpr double kSnrDb = 15.0;
constexpr std::size_t kDigestRounds = 2;
constexpr int kSetupRepeats = 5;
constexpr std::uint64_t kFrameStream = 0x66726573'68000000ULL;
constexpr std::uint64_t kWarmupCall = 0xfffffffeULL;

/// Frame `id`: the id in the first eight payload bytes keeps every frame
/// unique; the other twelve come from the seed.
zigbee::MacFrame fresh_frame(std::uint64_t seed, std::uint64_t id) {
  dsp::Rng rng = dsp::Rng::for_stream(seed ^ kFrameStream, id);
  zigbee::MacFrame frame;
  frame.sequence = static_cast<std::uint8_t>(id & 0xFF);
  frame.payload.resize(kPayloadBytes);
  std::memcpy(frame.payload.data(), &id, sizeof id);
  for (std::size_t i = sizeof id; i < kPayloadBytes; ++i) {
    frame.payload[i] = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
  }
  return frame;
}

/// The frames of one call: call 2r is round r's emulated one, 2r + 1 its
/// authentic one.
std::vector<zigbee::MacFrame> call_frames(std::uint64_t seed, std::uint64_t call,
                                          std::size_t count) {
  std::vector<zigbee::MacFrame> frames;
  for (std::size_t j = 0; j < count; ++j) {
    frames.push_back(fresh_frame(seed, call * kFramesPerCall + j));
  }
  return frames;
}

/// Round r's k-th Link: the emulated one first, then the authentic one.
sim::Link make_link(std::size_t k) {
  sim::LinkConfig config;
  config.kind = k == 0 ? sim::LinkKind::emulated : sim::LinkKind::authentic;
  config.environment = channel::Environment::awgn(kSnrDb);
  return sim::Link(config);
}

struct State {
  defense::Detector detector;
  sim::TrialEngine engine;
  std::size_t frame_samples = 0;
  State(std::uint64_t seed, std::size_t threads)
      : detector(defense::DetectorConfig{}),
        engine(sim::EngineConfig{seed, threads}) {}
};

/// Everything the traced run measures besides the spans.
struct TraceCounters {
  std::size_t trials = 0;
  std::size_t rx_frame_ok = 0;
  std::size_t usable = 0;
  std::size_t lut_hits = 0;
  std::size_t lut_slots = 0;
};

/// Public-function replay of Link::clean_waveform for one frame.
class SynthesisProbe {
 public:
  cvec run(const sim::Link& link, const zigbee::MacFrame& frame,
           std::uint64_t id, SpanRecorder& rec, TraceCounters& counters) const {
    cvec wave;
    {
      ScopedSpan span(rec, "zigbee.tx", id);
      wave = transmitter_.transmit_frame(frame);
    }
    if (link.config().kind != sim::LinkKind::emulated) return wave;
    cvec emulated;
    {
      ScopedSpan span(rec, "attack.emulate", id);
      emulated = emulate(link.config().emulator, wave, id, rec, counters);
    }
    ScopedSpan span(rec, "dsp.normalize", id);
    return dsp::normalize_power(emulated);
  }

 private:
  /// attack::WaveformEmulator::emulate, step by step (memo on, fixed or
  /// optimised alpha, selected or configured bins).
  static cvec emulate(const attack::EmulatorConfig& config,
                      std::span<const cplx> observed, std::uint64_t id,
                      SpanRecorder& rec, TraceCounters& counters) {
    constexpr std::size_t kSlot = wifi::kSymbolLength;
    constexpr std::size_t kFft = wifi::kNumSubcarriers;
    constexpr std::size_t kCp = wifi::kCyclicPrefixLength;
    cvec up;
    {
      ScopedSpan span(rec, "dsp.upsample", id);
      up = dsp::upsample(observed, config.interpolation);
      if (up.size() % kSlot != 0) up.resize(up.size() + (kSlot - up.size() % kSlot));
    }
    std::vector<std::size_t> bins;
    {
      ScopedSpan span(rec, "attack.select", id);
      bins = config.kept_bins.empty()
                 ? attack::SubcarrierSelector(config.selection).select_from_waveform(up).bins
                 : config.kept_bins;
    }
    double alpha = 0.0;
    {
      ScopedSpan span(rec, "attack.scale", id);
      if (config.alpha) {
        alpha = *config.alpha;
      } else {
        static const dsp::FftPlan plan(kFft);
        cvec pooled;
        for (std::size_t start = 0; start + kSlot <= up.size(); start += kSlot) {
          const cvec spectrum =
              plan.forward(std::span<const cplx>(up).subspan(start + kCp, kFft));
          for (std::size_t bin : bins) pooled.push_back(spectrum[bin]);
        }
        alpha = attack::optimize_scale(pooled);
      }
    }
    cvec wifi20;
    {
      ScopedSpan span(rec, "attack.symbols", id);
      const attack::WaveformEmulator emulator(config);
      std::unordered_map<std::string, cvec> lut;
      wifi20.reserve(up.size());
      for (std::size_t start = 0; start + kSlot <= up.size(); start += kSlot) {
        const auto slot = std::span<const cplx>(up).subspan(start, kSlot);
        std::string key(reinterpret_cast<const char*>(slot.data()), kSlot * sizeof(cplx));
        auto it = lut.find(key);
        ++counters.lut_slots;
        if (it != lut.end()) {
          ++counters.lut_hits;
        } else {
          attack::SymbolDiagnostics diagnostics;
          cvec grid;
          it = lut.emplace(std::move(key),
                           emulator.emulate_symbol(slot, bins, alpha, &diagnostics, &grid))
                   .first;
        }
        wifi20.insert(wifi20.end(), it->second.begin(), it->second.end());
      }
    }
    ScopedSpan span(rec, "dsp.decimate", id);
    cvec out = dsp::decimate(wifi20, config.interpolation);
    out.resize(observed.size(), cplx{0.0, 0.0});
    return out;
  }

  zigbee::Transmitter transmitter_;
};

/// Public-function replay of the engine trials of one
/// collect_defense_samples call.
sim::DefenseSamples probe_trials(const sim::Link& link,
                                 const std::vector<zigbee::MacFrame>& frames,
                                 std::uint64_t engine_seed, std::uint64_t run_index,
                                 const defense::Detector& detector,
                                 const zigbee::Receiver& receiver, SpanRecorder& rec,
                                 TraceCounters& counters) {
  channel::Environment env = link.config().environment;
  env.snr_db = env.effective_snr_db() + link.config().profile.sensitivity_gain_db;
  env.distance_m.reset();
  sim::DefenseSamples samples;
  cvec received;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ScopedSpan trial(rec, "probe.trial", i);
    dsp::Rng rng = dsp::Rng::for_stream(engine_seed, (run_index << 32) | i);
    const cvec clean = link.clean_waveform(frames[i]);
    {
      ScopedSpan span(rec, "channel.propagate", i);
      env.propagate_into(received, clean, rng);
    }
    zigbee::ReceiveResult rx;
    {
      ScopedSpan span(rec, "zigbee.rx", i);
      rx = receiver.receive(received);
    }
    sim::DefenseObservation observation;
    if (rx.freq_chips.size() >= 8) {
      ScopedSpan span(rec, "defense.classify", i);
      const defense::Verdict verdict = detector.classify(rx.freq_chips);
      observation.usable = true;
      observation.distance_sq = verdict.distance_sq;
      observation.c40 = verdict.feature.c40;
      observation.c42 = verdict.feature.c42;
    }
    ++counters.trials;
    counters.rx_frame_ok += rx.frame_ok() ? 1 : 0;
    counters.usable += observation.usable ? 1 : 0;
    samples.add(observation);
  }
  return samples;
}

bool same_samples(const sim::DefenseSamples& a, const sim::DefenseSamples& b) {
  return a.frames_used == b.frames_used && a.frames_skipped == b.frames_skipped &&
         same_bits(a.distances, b.distances) && same_bits(a.c40, b.c40) &&
         same_bits(a.c42, b.c42);
}

class Runner {
 public:
  Runner(const Options& options, State& state, Outcome& outcome)
      : options_(options), state_(state), outcome_(outcome) {}

  /// One round; returns its wall time in seconds.
  double round(std::uint64_t r, SpanRecorder& rec) {
    const std::int64_t start = now_ns();
    ScopedSpan round_span(rec, "bench.round", r);
    for (std::size_t k = 0; k < 2; ++k) {
      const std::uint64_t call = r * 2 + k;
      const sim::Link link = make_link(k);
      const std::vector<zigbee::MacFrame> frames =
          call_frames(options_.seed, call, kFramesPerCall);
      sim::DefenseSamples samples;
      if (!rec.enabled()) {
        samples = sim::collect_defense_samples(link, frames, frames.size(),
                                               state_.detector, state_.engine);
      } else {
        const std::uint64_t run_index = state_.engine.next_run_index();
        const std::int64_t t0 = now_ns();
        {
          ScopedSpan span(rec, "sim.link.prime", call);
          link.prime(frames);
        }
        const std::int64_t t1 = now_ns();
        {
          ScopedSpan span(rec, "sim.engine.fanout", call);
          samples = sim::collect_defense_samples(link, frames, frames.size(),
                                                 state_.detector, state_.engine);
        }
        const std::int64_t t2 = now_ns();
        prime_ns_ += t1 - t0;
        fanout_ns_ += t2 - t1;
        ++traced_calls_;
        library_trials_ += frames.size();
        probe(link, frames, run_index, samples, call, rec);
      }
      score(samples, k == 0, r);
    }
    return static_cast<double>(now_ns() - start) * 1e-9;
  }

  const TraceCounters& counters() const { return counters_; }
  std::uint64_t digest() const { return digest_.value(); }
  std::int64_t prime_ns() const { return prime_ns_; }
  std::int64_t fanout_ns() const { return fanout_ns_; }
  std::size_t traced_calls() const { return traced_calls_; }
  std::size_t library_trials() const { return library_trials_; }

 private:
  void score(const sim::DefenseSamples& samples, bool attack, std::uint64_t r) {
    outcome_.check(samples.frames_used + samples.frames_skipped == kFramesPerCall,
                   "collect_defense_samples returned a wrong trial count");
    std::size_t attacks = 0;
    for (double d : samples.distances) {
      attacks += d >= state_.detector.config().threshold ? 1 : 0;
    }
    const TrialTally tally =
        tally_trials(kFramesPerCall, samples.frames_used, attacks, attack);
    outcome_.attempted += tally.attempted;
    outcome_.failed += tally.errors();
    if (r < kDigestRounds) {
      digest_.u64(samples.frames_used);
      digest_.u64(samples.frames_skipped);
      digest_.f64s(samples.distances);
      digest_.f64s(samples.c40);
      digest_.f64s(samples.c42);
    }
  }

  void probe(const sim::Link& link, const std::vector<zigbee::MacFrame>& frames,
             std::uint64_t run_index, const sim::DefenseSamples& library,
             std::uint64_t call, SpanRecorder& rec) {
    for (std::size_t j = 0; j < frames.size(); ++j) {
      cvec wave;
      {
        ScopedSpan span(rec, "probe.synth", call * kFramesPerCall + j);
        wave = synthesis_.run(link, frames[j], call * kFramesPerCall + j, rec, counters_);
      }
      outcome_.check(same_bits(wave, link.clean_waveform(frames[j])),
                     "probe: synthesis differs from Link::clean_waveform");
    }
    const sim::DefenseSamples replay =
        probe_trials(link, frames, state_.engine.seed(), run_index, state_.detector,
                     receiver_, rec, counters_);
    outcome_.check(same_samples(replay, library),
                   "probe: trial replay differs from collect_defense_samples");
  }

  const Options& options_;
  State& state_;
  Outcome& outcome_;
  SynthesisProbe synthesis_;
  zigbee::Receiver receiver_{zigbee::ReceiverConfig{}};
  TraceCounters counters_;
  Digest digest_;
  std::int64_t prime_ns_ = 0;
  std::int64_t fanout_ns_ = 0;
  std::size_t traced_calls_ = 0;
  std::size_t library_trials_ = 0;
};

std::unique_ptr<State> set_up(const Options& options) {
  auto state = std::make_unique<State>(options.seed, options.threads);
  // Warm-up: a short call on a throwaway Link of each kind, so thread pool,
  // FFT plans and kernel dispatch are ready.
  for (std::size_t k = 0; k < 2; ++k) {
    const sim::Link warm = make_link(k);
    const auto frames = call_frames(options.seed, kWarmupCall + k, kWarmupFrames);
    sim::collect_defense_samples(warm, frames, frames.size(), state->detector,
                                 state->engine);
    state->frame_samples = warm.clean_waveform(frames[0]).size();
  }
  return state;
}

}  // namespace

Outcome run_trial_fresh(const Options& options) {
  Outcome outcome;
  double setup_s = 0.0;
  auto state = timed_setup(kSetupRepeats, setup_s,
                           [&] { return set_up(options); });
  Runner runner(options, *state, outcome);

  // Untraced measurement: the whole run, or the first half of a traced run.
  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  SpanRecorder off(false);
  std::vector<double> round_ms;  // verdict latency: a round's verdicts return together
  SliceRates rates;
  std::uint64_t r = 0;
  const std::int64_t start = now_ns();
  while (r < kDigestRounds ||
         static_cast<double>(now_ns() - start) * 1e-9 < untraced_s) {
    const double seconds = runner.round(r++, off);
    round_ms.push_back(seconds * 1e3);
    rates.add(2 * kFramesPerCall, seconds);
  }
  const double wall = static_cast<double>(now_ns() - start) * 1e-9;
  const double trials = static_cast<double>(r * 2 * kFramesPerCall);
  char line[128];
  std::snprintf(line, sizeof line, "digest of rounds 0-%zu: %016llx",
                kDigestRounds - 1, static_cast<unsigned long long>(runner.digest()));
  outcome.note(line);

  if (!options.trace) {
    outcome.set("setup_s", setup_s);
    const double rate = rates.median_rate(outcome, "trials_per_s");
    outcome.set("trials_per_s", rate);
    outcome.set("msamples_per_s", rate * static_cast<double>(state->frame_samples) / 1e6);
    outcome.set("verdict_latency_p50_ms", median(round_ms));
    outcome.set("verdict_ok_ratio",
                1.0 - static_cast<double>(outcome.failed) /
                          static_cast<double>(outcome.attempted));
    outcome.set("peak_rss_mb", peak_rss_mb());
    return outcome;
  }

  // Traced measurement.
  sim::telemetry::set_enabled(true);
  const auto before = sim::telemetry::collect();
  SpanRecorder rec(true);
  const std::uint64_t first_traced = r;
  const std::int64_t traced_start = now_ns();
  {
    ScopedSpan root(rec, "bench.traced");
    while (r == first_traced ||
           static_cast<double>(now_ns() - traced_start) * 1e-9 < options.seconds / 2) {
      runner.round(r++, rec);
    }
  }
  const double traced_wall = static_cast<double>(now_ns() - traced_start) * 1e-9;
  const auto after = sim::telemetry::collect();
  sim::telemetry::set_enabled(false);

  const auto totals = totals_by_name(rec.spans());
  const TraceCounters& c = runner.counters();
  const double calls = static_cast<double>(runner.traced_calls());
  const double lib_trials = static_cast<double>(runner.library_trials());
  const double misses = telemetry_sum(after, "link", "waveform_cache_misses") -
                        telemetry_sum(before, "link", "waveform_cache_misses");
  const double engine_busy_ns = telemetry_sum(after, "engine", "trial") -
                                telemetry_sum(before, "engine", "trial");

  outcome.set("attack.emulate_ms_per_frame", mean_ns(totals, "attack.emulate") / 1e6);
  outcome.set("attack.select_ms_per_frame", mean_ns(totals, "attack.select") / 1e6);
  outcome.set("attack.scale_ms_per_frame", mean_ns(totals, "attack.scale") / 1e6);
  outcome.set("attack.symbols_ms_per_frame", mean_ns(totals, "attack.symbols") / 1e6);
  outcome.set("attack.lut_hit_ratio", c.lut_slots == 0 ? 0.0
                                          : static_cast<double>(c.lut_hits) /
                                                static_cast<double>(c.lut_slots));
  outcome.set("dsp.upsample_ms_per_frame", mean_ns(totals, "dsp.upsample") / 1e6);
  outcome.set("dsp.decimate_ms_per_frame", mean_ns(totals, "dsp.decimate") / 1e6);
  outcome.set("zigbee.tx_us_per_frame", mean_ns(totals, "zigbee.tx") / 1e3);
  outcome.set("sim.link.prime_s", static_cast<double>(runner.prime_ns()) * 1e-9 / calls);
  outcome.set("sim.engine.fanout_s", static_cast<double>(runner.fanout_ns()) * 1e-9 / calls);
  outcome.set("sim.engine.serial_fraction",
              static_cast<double>(runner.prime_ns()) /
                  static_cast<double>(runner.prime_ns() + runner.fanout_ns()));
  outcome.set("sim.link.cache_hit_ratio", 1.0 - misses / lib_trials);
  // Entries a Link's memo holds when its call returns: one per miss.
  const double entries = misses / calls;
  outcome.set("sim.link.cache_entries", entries);
  // Computed, not measured: entries x (waveform + PSDU + key bytes).
  const double entry_bytes = static_cast<double>(state->frame_samples * sizeof(cplx)) +
                             2.0 * static_cast<double>(kPayloadBytes + 11);
  outcome.set("sim.link.cache_mb", entries * entry_bytes / 1e6);
  outcome.set("sim.engine.busy_ratio",
              engine_busy_ns / (static_cast<double>(runner.fanout_ns()) *
                                static_cast<double>(options.threads)));
  report_trial_times(totals, "probe.trial", outcome);
  outcome.set("channel.propagate_us_per_sensor", mean_ns(totals, "channel.propagate") / 1e3);
  outcome.set("zigbee.rx_us_per_frame", mean_ns(totals, "zigbee.rx") / 1e3);
  const double probed = static_cast<double>(c.trials);
  outcome.set("zigbee.rx_frame_ok_ratio", static_cast<double>(c.rx_frame_ok) / probed);
  outcome.set("defense.classify_us_per_frame", mean_ns(totals, "defense.classify") / 1e3);
  outcome.set("defense.usable_ratio", static_cast<double>(c.usable) / probed);

  // Tracing overhead: traced wall without the probes' replay, per library
  // trial, over the untraced wall per trial.
  const auto probe_ns = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns);
  };
  const double library_s =
      traced_wall - (probe_ns("probe.synth") + probe_ns("probe.trial")) * 1e-9;
  outcome.set("bench.trace_overhead_ratio",
              (library_s / lib_trials) / (wall / trials));
  std::snprintf(line, sizeof line, "traced rounds %llu, untraced rounds %llu",
                static_cast<unsigned long long>(r - first_traced),
                static_cast<unsigned long long>(first_traced));
  outcome.note(line);
  finish_trace(rec, options, outcome);
  return outcome;
}

}  // namespace perfbench
