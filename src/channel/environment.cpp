#include "channel/environment.h"

#include <algorithm>

#include "channel/awgn.h"
#include "channel/impairments.h"
#include "dsp/require.h"
#include "dsp/stats.h"
#include "sim/telemetry.h"

namespace ctc::channel {

double Environment::effective_snr_db() const {
  return distance_m ? path_loss.snr_db(*distance_m) : snr_db;
}

cvec Environment::propagate(std::span<const cplx> signal, dsp::Rng& rng) const {
  cvec out;
  propagate_into(out, signal, rng);
  return out;
}

void Environment::propagate_into(cvec& out, std::span<const cplx> signal,
                                 dsp::Rng& rng) const {
  CTC_TELEM_TIMER("channel", "propagate");
  CTC_TELEM_COUNT("channel", "frames", 1);
  CTC_TELEM_COUNT("channel", "samples", signal.size());
  CTC_TELEM_GAUGE("channel", "snr_db", effective_snr_db());
  out.assign(signal.begin(), signal.end());
  if (multipath) {
    CTC_TELEM_COUNT("channel", "multipath_fades", 1);
    apply_multipath_inplace(out, draw_multipath_taps(*multipath, rng));
  } else if (rician_k_factor) {
    CTC_TELEM_COUNT("channel", "rician_fades", 1);
    apply_flat_fading_inplace(out, rician_tap(*rician_k_factor, rng));
  }
  const double phase =
      random_phase ? rng.uniform(0.0, kTwoPi) : phase_offset_rad;
  if (cfo_hz != 0.0 || phase != 0.0) {
    apply_cfo_inplace(out, cfo_hz, sample_rate_hz, phase);
  }
  if (timing_offset != 0.0) {
    apply_timing_offset_inplace(out, timing_offset);
  }
  const double noise_variance = dsp::from_db(-effective_snr_db());
  add_noise_variance_inplace(out, noise_variance, rng);
}

void propagate_batch_multi(dsp::BatchBuffer& out, std::span<const cplx> signal,
                           std::span<const Environment> envs,
                           std::span<dsp::Rng> rngs) {
  CTC_REQUIRE(envs.size() == rngs.size());
  CTC_TELEM_TIMER("channel", "propagate_batch_multi");
  CTC_TELEM_COUNT("channel", "frames", rngs.size());
  CTC_TELEM_COUNT("channel", "samples", rngs.size() * signal.size());
  const std::size_t rows = rngs.size();
  out.reset(rows, signal.size());
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<cplx> row = out.row(r);
    std::copy(signal.begin(), signal.end(), row.begin());
  }
  // Stage-major sweeps; every per-row branch reads row r's OWN environment.
  // Row r's RNG draw order matches propagate_into(): fade first, then the
  // random phase, then the noise samples — rows with no fade or no random
  // phase simply skip those draws, exactly as the serial path does.
  for (std::size_t r = 0; r < rows; ++r) {
    const Environment& env = envs[r];
    if (env.multipath) {
      CTC_TELEM_COUNT("channel", "multipath_fades", 1);
      apply_multipath_inplace(out.row(r),
                              draw_multipath_taps(*env.multipath, rngs[r]));
    } else if (env.rician_k_factor) {
      CTC_TELEM_COUNT("channel", "rician_fades", 1);
      apply_flat_fading_inplace(out.row(r),
                                rician_tap(*env.rician_k_factor, rngs[r]));
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const Environment& env = envs[r];
    const double phase =
        env.random_phase ? rngs[r].uniform(0.0, kTwoPi) : env.phase_offset_rad;
    if (env.cfo_hz != 0.0 || phase != 0.0) {
      apply_cfo_inplace(out.row(r), env.cfo_hz, env.sample_rate_hz, phase);
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (envs[r].timing_offset != 0.0) {
      apply_timing_offset_inplace(out.row(r), envs[r].timing_offset);
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    CTC_TELEM_GAUGE("channel", "snr_db", envs[r].effective_snr_db());
    const double noise_variance = dsp::from_db(-envs[r].effective_snr_db());
    add_noise_variance_inplace(out.row(r), noise_variance, rngs[r]);
  }
}

Environment Environment::awgn(double snr_db) {
  Environment env;
  env.snr_db = snr_db;
  return env;
}

Environment Environment::real_world(double distance_m, double sample_rate_hz) {
  Environment env;
  env.distance_m = distance_m;
  env.rician_k_factor = 8.0;  // strong LoS at 1-8 m with human scatter
  env.cfo_hz = 80.0;          // small residual after coarse correction
  env.random_phase = true;
  env.sample_rate_hz = sample_rate_hz;
  env.timing_offset = 0.25;
  return env;
}

}  // namespace ctc::channel
