// mesh-repeat: a closed-loop mesh::run_mesh_trials over a 16-sensor field,
// attack trials and benign trials alternating over a small fixed frame set.
//
// The frame set is primed into both fields' waveform memos in set-up, so
// every trial hits the memo: ZigBee TX and the attack emulation cost
// nothing, and each trial is 16 channel propagations, 16 ZigBee receptions,
// 16 classifications, three fusions and one localisation.
//
// The traced run adds a probe per trial: SensorField::observe_frame is
// called on the trial's own RNG stream, and the same trial is replayed
// through the public channel, receiver, detector, fusion and localisation
// functions. The replay must match observe_frame bit for bit, and the
// observe_frame results folded in trial order must match the aggregate the
// engine returned.
#include <cmath>
#include <cstring>
#include <vector>

#include "channel/environment.h"
#include "common.h"
#include "dsp/batch.h"
#include "dsp/rng.h"
#include "mesh/fusion.h"
#include "mesh/localize.h"
#include "mesh/sensor_field.h"
#include "sim/engine.h"
#include "sim/link.h"
#include "sim/telemetry.h"
#include "truth.h"

namespace perfbench {

namespace {

using namespace ctc;

constexpr std::size_t kSensors = 16;
constexpr std::size_t kFrameSet = 4;
constexpr std::size_t kTrialsPerCall = 48;
constexpr std::size_t kPayloadBytes = 20;
constexpr std::size_t kDigestRounds = 2;
constexpr int kSetupRepeats = 5;
constexpr std::uint64_t kFrameStream = 0x6d657368'00000000ULL;

std::vector<zigbee::MacFrame> frame_set(std::uint64_t seed) {
  std::vector<zigbee::MacFrame> frames;
  for (std::size_t f = 0; f < kFrameSet; ++f) {
    dsp::Rng rng = dsp::Rng::for_stream(seed ^ kFrameStream, f);
    zigbee::MacFrame frame;
    frame.sequence = static_cast<std::uint8_t>(f);
    frame.payload.resize(kPayloadBytes);
    for (auto& byte : frame.payload) byte = static_cast<std::uint8_t>(rng.next_u64() & 0xFF);
    frames.push_back(std::move(frame));
  }
  return frames;
}

mesh::MeshConfig field_config(sim::LinkKind kind) {
  mesh::MeshConfig config;
  config.sensors = kSensors;
  config.kind = kind;
  return config;
}

struct State {
  sim::TrialEngine engine;
  std::vector<zigbee::MacFrame> frames;
  mesh::SensorField attack_field{field_config(sim::LinkKind::emulated)};
  mesh::SensorField benign_field{field_config(sim::LinkKind::authentic)};
  std::size_t frame_samples = 0;
  State(std::uint64_t seed, std::size_t threads)
      : engine(sim::EngineConfig{seed, threads}), frames(frame_set(seed)) {}
  const mesh::SensorField& field(std::size_t k) const {
    return k == 0 ? attack_field : benign_field;
  }
};

std::unique_ptr<State> set_up(const Options& options) {
  auto state = std::make_unique<State>(options.seed, options.threads);
  for (std::size_t k = 0; k < 2; ++k) {
    state->field(k).prime(state->frames);
    mesh::run_mesh_trials(state->field(k), state->frames, kTrialsPerCall / 4,
                          state->engine);  // warm-up
  }
  sim::LinkConfig link;
  state->frame_samples = sim::Link(link).clean_waveform(state->frames[0]).size();
  return state;
}

bool same(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_fusion(const mesh::FusionResult& a, const mesh::FusionResult& b) {
  return same(a.score, b.score) && a.is_attack == b.is_attack && a.used == b.used;
}

bool same_observation(const mesh::MeshObservation& a, const mesh::MeshObservation& b) {
  if (a.sensors.size() != b.sensors.size()) return false;
  for (std::size_t s = 0; s < a.sensors.size(); ++s) {
    const auto& x = a.sensors[s];
    const auto& y = b.sensors[s];
    if (!same(x.snr_db, y.snr_db) || !same(x.measured_rssi_dbm, y.measured_rssi_dbm) ||
        x.usable != y.usable || x.is_attack != y.is_attack || !same(x.de2, y.de2) ||
        !same(x.c40, y.c40) || !same(x.c42, y.c42)) {
      return false;
    }
  }
  return same_fusion(a.majority, b.majority) && same_fusion(a.weighted, b.weighted) &&
         same_fusion(a.bayesian, b.bayesian) &&
         same(a.localization.position.x, b.localization.position.x) &&
         same(a.localization.position.y, b.localization.position.y) &&
         a.localization.converged == b.localization.converged &&
         a.localization.iterations == b.localization.iterations &&
         same(a.localization.residual_rms_m, b.localization.residual_rms_m) &&
         same(a.position_error_m, b.position_error_m);
}

bool same_stats(const mesh::MeshStats& a, const mesh::MeshStats& b) {
  return a.trials == b.trials && a.sensors_total == b.sensors_total &&
         a.sensors_usable == b.sensors_usable && a.sensor_attacks == b.sensor_attacks &&
         a.majority_attacks == b.majority_attacks &&
         a.weighted_attacks == b.weighted_attacks &&
         a.bayesian_attacks == b.bayesian_attacks &&
         a.localization_converged == b.localization_converged &&
         same(a.de2_sum, b.de2_sum) && same_bits(a.position_errors, b.position_errors);
}

struct TraceCounters {
  std::size_t trials = 0;
  std::size_t sensor_frames = 0;
  std::size_t rx_frame_ok = 0;
  std::size_t usable = 0;
  std::size_t converged = 0;
};

/// Public-function replay of SensorField::observe_frame.
class ObserveProbe {
 public:
  explicit ObserveProbe(const mesh::SensorField& field)
      : field_(field),
        link_([&] {
          sim::LinkConfig link;
          link.kind = field.config().kind;
          link.profile = field.config().profile;
          link.emulator = field.config().emulator;
          return link;
        }()),
        receiver_([&] {
          zigbee::ReceiverConfig rx;
          rx.profile = field.config().profile;
          return rx;
        }()),
        detector_(field.config().detector) {
    const mesh::MeshConfig& config = field.config();
    for (double meters : field.distances()) {
      model_rssi_dbm_.push_back(config.path_loss.rssi_dbm(meters));
      channel::Environment env;
      env.snr_db = config.path_loss.snr_db(meters) + config.snr_offset_db +
                   config.profile.sensitivity_gain_db;
      env.rician_k_factor = config.rician_k_factor;
      env.cfo_hz = config.cfo_hz;
      env.random_phase = config.random_phase;
      env.sample_rate_hz = config.sample_rate_hz;
      environments_.push_back(env);
    }
  }

  void prime(std::span<const zigbee::MacFrame> frames) { link_.prime(frames); }

  mesh::MeshObservation run(const zigbee::MacFrame& frame, dsp::Rng& rng,
                            std::uint64_t id, SpanRecorder& rec,
                            TraceCounters& counters) {
    const mesh::MeshConfig& config = field_.config();
    const std::size_t sensors = config.sensors;
    const cvec clean = link_.clean_waveform(frame);
    const std::uint64_t sensor_seed = rng.next_u64();
    std::vector<dsp::Rng> rngs;
    for (std::size_t s = 0; s < sensors; ++s) rngs.push_back(dsp::Rng::for_stream(sensor_seed, s));
    mesh::MeshObservation obs;
    obs.sensors.resize(sensors);
    for (std::size_t s = 0; s < sensors; ++s) {
      obs.sensors[s].snr_db = environments_[s].snr_db;
      obs.sensors[s].measured_rssi_dbm =
          model_rssi_dbm_[s] + config.shadow_sigma_db * rngs[s].gaussian();
    }
    {
      ScopedSpan span(rec, "channel.propagate", id);
      channel::propagate_batch_multi(batch_, clean, environments_, rngs);
    }
    for (std::size_t s = 0; s < sensors; ++s) {
      zigbee::ReceiveResult rx;
      {
        ScopedSpan span(rec, "zigbee.rx", id);
        rx = receiver_.receive(batch_.row(s));
      }
      const rvec& chips =
          config.tap == sim::DefenseTap::discriminator ? rx.freq_chips : rx.soft_chips;
      mesh::SensorObservation& sensor = obs.sensors[s];
      sensor.usable = chips.size() >= 8;
      ++counters.sensor_frames;
      counters.rx_frame_ok += rx.frame_ok() ? 1 : 0;
      if (!sensor.usable) continue;
      ++counters.usable;
      ScopedSpan span(rec, "defense.classify", id);
      const defense::Verdict verdict = detector_.classify(chips);
      sensor.is_attack = verdict.is_attack;
      sensor.de2 = verdict.distance_sq;
      sensor.c40 = verdict.feature.c40;
      sensor.c42 = verdict.feature.c42;
    }
    {
      ScopedSpan span(rec, "mesh.fuse", id);
      std::vector<mesh::SensorVote> votes(sensors);
      for (std::size_t s = 0; s < sensors; ++s) {
        votes[s].usable = obs.sensors[s].usable;
        votes[s].is_attack = obs.sensors[s].is_attack;
        votes[s].de2 = obs.sensors[s].de2;
        votes[s].weight = std::pow(10.0, obs.sensors[s].measured_rssi_dbm / 10.0);
      }
      obs.majority = mesh::fuse_majority(votes);
      obs.weighted = mesh::fuse_rssi_weighted(votes, config.detector.threshold);
      obs.bayesian =
          mesh::fuse_bayesian(votes, std::span<const mesh::GaussianPair>(&config.bayes, 1));
    }
    {
      ScopedSpan span(rec, "mesh.localize", id);
      std::vector<mesh::RssiSample> samples(sensors);
      for (std::size_t s = 0; s < sensors; ++s) {
        samples[s].position = field_.positions()[s];
        samples[s].rssi_dbm = obs.sensors[s].measured_rssi_dbm;
      }
      mesh::LocalizeConfig localize;
      localize.path_loss = config.path_loss;
      obs.localization = mesh::localize_rssi(samples, localize);
      obs.position_error_m = mesh::distance(obs.localization.position, config.attacker);
    }
    ++counters.trials;
    counters.converged += obs.localization.converged ? 1 : 0;
    return obs;
  }

 private:
  const mesh::SensorField& field_;
  sim::Link link_;
  zigbee::Receiver receiver_;
  defense::Detector detector_;
  std::vector<double> model_rssi_dbm_;
  std::vector<channel::Environment> environments_;
  dsp::BatchBuffer batch_;
};

void fold_digest(Digest& digest, const mesh::MeshStats& stats) {
  for (std::size_t v : {stats.trials, stats.sensors_total, stats.sensors_usable,
                        stats.sensor_attacks, stats.majority_attacks,
                        stats.weighted_attacks, stats.bayesian_attacks,
                        stats.localization_converged}) {
    digest.u64(v);
  }
  digest.f64(stats.de2_sum);
  digest.f64s(stats.position_errors);
}

}  // namespace

Outcome run_mesh_repeat(const Options& options) {
  Outcome outcome;
  double setup_s = 0.0;
  auto state = timed_setup(kSetupRepeats, setup_s, [&] { return set_up(options); });
  Digest digest;
  const auto score = [&](const mesh::MeshStats& stats, bool attack, std::uint64_t r) {
    outcome.check(stats.trials == kTrialsPerCall && stats.sensors_total == kTrialsPerCall * kSensors,
                  "run_mesh_trials returned a wrong trial count");
    const TrialTally tally =
        tally_trials(kTrialsPerCall, stats.trials, stats.majority_attacks, attack);
    outcome.attempted += tally.attempted;
    outcome.failed += tally.errors();
    if (r < kDigestRounds) fold_digest(digest, stats);
  };

  const double untraced_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> round_ms;  // verdict latency: a round's verdicts return together
  SliceRates rates;
  std::uint64_t r = 0;
  const std::int64_t start = now_ns();
  while (r < kDigestRounds || static_cast<double>(now_ns() - start) * 1e-9 < untraced_s) {
    const std::int64_t round_start = now_ns();
    for (std::size_t k = 0; k < 2; ++k) {
      score(mesh::run_mesh_trials(state->field(k), state->frames, kTrialsPerCall,
                                  state->engine),
            k == 0, r);
    }
    const double seconds = static_cast<double>(now_ns() - round_start) * 1e-9;
    round_ms.push_back(seconds * 1e3);
    rates.add(2 * kTrialsPerCall, seconds);
    ++r;
  }
  const double wall = static_cast<double>(now_ns() - start) * 1e-9;
  const double trials = static_cast<double>(r * 2 * kTrialsPerCall);
  char line[160];
  std::snprintf(line, sizeof line, "digest of rounds 0-%zu: %016llx", kDigestRounds - 1,
                static_cast<unsigned long long>(digest.value()));
  outcome.note(line);

  if (!options.trace) {
    outcome.set("setup_s", setup_s);
    const double rate = rates.median_rate(outcome, "trials_per_s");
    outcome.set("trials_per_s", rate);
    outcome.set("msamples_per_s",
                rate * static_cast<double>(kSensors * state->frame_samples) / 1e6);
    outcome.set("verdict_latency_p50_ms", median(round_ms));
    outcome.set("verdict_ok_ratio", 1.0 - static_cast<double>(outcome.failed) /
                                              static_cast<double>(outcome.attempted));
    outcome.set("peak_rss_mb", peak_rss_mb());
    return outcome;
  }

  ObserveProbe probes[2] = {ObserveProbe(state->attack_field), ObserveProbe(state->benign_field)};
  for (auto& probe : probes) probe.prime(state->frames);
  TraceCounters counters;
  sim::telemetry::set_enabled(true);
  const auto before = sim::telemetry::collect();
  SpanRecorder rec(true);
  std::int64_t prime_ns = 0;
  std::int64_t fanout_ns = 0;
  std::size_t calls = 0;
  const std::uint64_t first_traced = r;
  const std::int64_t traced_start = now_ns();
  {
    ScopedSpan root(rec, "bench.traced");
    while (r == first_traced ||
           static_cast<double>(now_ns() - traced_start) * 1e-9 < options.seconds / 2) {
      ScopedSpan round(rec, "bench.round", r);
      for (std::size_t k = 0; k < 2; ++k) {
        const mesh::SensorField& field = state->field(k);
        const std::uint64_t call = r * 2 + k;
        const std::uint64_t run_index = state->engine.next_run_index();
        mesh::MeshStats stats;
        const std::int64_t t0 = now_ns();
        {
          ScopedSpan span(rec, "sim.link.prime", call);
          field.prime(state->frames);
        }
        const std::int64_t t1 = now_ns();
        {
          ScopedSpan span(rec, "sim.engine.fanout", call);
          stats = mesh::run_mesh_trials(field, state->frames, kTrialsPerCall, state->engine);
        }
        prime_ns += t1 - t0;
        fanout_ns += now_ns() - t1;
        ++calls;
        score(stats, k == 0, r);
        mesh::MeshStats replayed;
        for (std::size_t i = 0; i < kTrialsPerCall; ++i) {
          const zigbee::MacFrame& frame = state->frames[i % kFrameSet];
          const std::uint64_t stream = (run_index << 32) | i;
          dsp::Rng library_rng = dsp::Rng::for_stream(state->engine.seed(), stream);
          dsp::Rng probe_rng = dsp::Rng::for_stream(state->engine.seed(), stream);
          mesh::MeshObservation library;
          {
            ScopedSpan span(rec, "mesh.observe", i);
            library = field.observe_frame(frame, library_rng);
          }
          mesh::MeshObservation probe;
          {
            ScopedSpan span(rec, "probe.mesh", i);
            probe = probes[k].run(frame, probe_rng, i, rec, counters);
          }
          outcome.check(same_observation(library, probe),
                        "probe: trial replay differs from SensorField::observe_frame");
          replayed.add(library);
        }
        outcome.check(same_stats(replayed, stats),
                      "probe: observe_frame in trial order differs from run_mesh_trials");
      }
      ++r;
    }
  }
  const double traced_wall = static_cast<double>(now_ns() - traced_start) * 1e-9;
  const auto after = sim::telemetry::collect();
  sim::telemetry::set_enabled(false);

  const auto totals = totals_by_name(rec.spans());
  const double lib_trials = static_cast<double>(calls * kTrialsPerCall);
  const double misses = telemetry_sum(after, "link", "waveform_cache_misses") -
                        telemetry_sum(before, "link", "waveform_cache_misses");
  const double engine_busy_ns =
      telemetry_sum(after, "engine", "trial") - telemetry_sum(before, "engine", "trial");
  outcome.set("sim.link.prime_s", static_cast<double>(prime_ns) * 1e-9 / static_cast<double>(calls));
  outcome.set("sim.engine.fanout_s", static_cast<double>(fanout_ns) * 1e-9 / static_cast<double>(calls));
  outcome.set("sim.engine.serial_fraction",
              static_cast<double>(prime_ns) / static_cast<double>(prime_ns + fanout_ns));
  outcome.set("sim.link.cache_hit_ratio", 1.0 - misses / lib_trials);
  // Entries are the frame set primed into each field's memo in set-up.
  outcome.set("sim.link.cache_entries", static_cast<double>(2 * kFrameSet));
  outcome.set("sim.link.cache_mb",
              static_cast<double>(2 * kFrameSet * state->frame_samples * sizeof(cplx)) / 1e6);
  outcome.set("sim.engine.busy_ratio",
              engine_busy_ns / (static_cast<double>(fanout_ns) * static_cast<double>(options.threads)));
  report_trial_times(totals, "mesh.observe", outcome);
  outcome.set("channel.propagate_us_per_sensor",
              mean_ns(totals, "channel.propagate") / 1e3 / static_cast<double>(kSensors));
  outcome.set("zigbee.rx_us_per_frame", mean_ns(totals, "zigbee.rx") / 1e3);
  outcome.set("zigbee.rx_frame_ok_ratio", static_cast<double>(counters.rx_frame_ok) /
                                              static_cast<double>(counters.sensor_frames));
  outcome.set("defense.classify_us_per_frame", mean_ns(totals, "defense.classify") / 1e3);
  outcome.set("defense.usable_ratio", static_cast<double>(counters.usable) /
                                          static_cast<double>(counters.sensor_frames));
  outcome.set("mesh.observe_us_per_trial", mean_ns(totals, "mesh.observe") / 1e3);
  outcome.set("mesh.fuse_us_per_trial", mean_ns(totals, "mesh.fuse") / 1e3);
  outcome.set("mesh.localize_us_per_trial", mean_ns(totals, "mesh.localize") / 1e3);
  outcome.set("mesh.localize_converged_ratio", static_cast<double>(counters.converged) /
                                                   static_cast<double>(counters.trials));
  const auto span_s = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns) * 1e-9;
  };
  const double library_s = traced_wall - span_s("mesh.observe") - span_s("probe.mesh");
  outcome.set("bench.trace_overhead_ratio", (library_s / lib_trials) / (wall / trials));
  std::snprintf(line, sizeof line, "traced rounds %llu, untraced rounds %llu",
                static_cast<unsigned long long>(r - first_traced),
                static_cast<unsigned long long>(first_traced));
  outcome.note(line);
  finish_trace(rec, options, outcome);
  return outcome;
}

}  // namespace perfbench
