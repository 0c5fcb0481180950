// sentry-air: the sentry watching realistic air.
//
// Set-up synthesises one capture per channel with sentry::LinkSource: every
// third frame is the WiFi emulation attack, AWGN 15 dB, and an idle gap of
// three frame lengths after each frame, so about a quarter of the airtime
// is busy.
//
//   * Throughput phase (closed loop): SentryService with 4 channels on 2
//     shards, so DRR shares each shard, replays the captures unpaced.
//   * Latency phase (open loop): one channel paced at 4 Msample/s, one
//     ZigBee channel in real time. A producer thread pushes the capture
//     into an SpscRing on schedule; the calling thread drains it into a
//     StreamScanner. A verdict's latency runs from when its frame's last
//     sample was due on the schedule to the verdict callback.
//
// Every phase checks that each channel got exactly one verdict per emitted
// frame, at the frame's stream position, with the class LinkSource gave it.
// The traced run reads the scanner's stage timers (sentry/scan_ns,
// decode_ns, classify_ns, write_ns) through sim::telemetry::collect. The
// service has no ingest or ring timers, so those two costs come from a
// separate single-threaded probe over the same capture
// (ReplaySource::next_block, SpscRing push/peek/consume). What the
// service's shard-busy time holds beyond the stages is reported as
// sentry.unattributed_ns_per_sample. The run fails when the stages
// together exceed the busy time by more than kStageTolerance of it (the
// ROADMAP's 113 vs 88 ns/sample inversion), or when the service's own
// sentry/ingested and sentry/samples_in counters disagree with the
// samples the measured runs ingested.
#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "channel/environment.h"
#include "common.h"
#include "sentry/frame_sync.h"
#include "sentry/ring_buffer.h"
#include "sentry/service.h"
#include "sentry/source.h"
#include "sim/telemetry.h"
#include "truth.h"
#include "zigbee/frame.h"

namespace perfbench {

namespace {

using namespace ctc;

constexpr std::size_t kChannels = 4;
constexpr std::size_t kShards = 2;
constexpr std::size_t kCaptureFrames = 24;
constexpr std::size_t kPayloadBytes = 20;
constexpr std::size_t kGapFrames = 3;          ///< idle gap, in frame lengths
constexpr std::size_t kReplayPasses = 4;       ///< capture passes per service run
constexpr double kPacedRate = 4.0e6;           ///< samples/s, one channel real time
constexpr std::size_t kPaceBlock = 512;        ///< samples per paced push
constexpr std::size_t kLatencyRing = std::size_t{1} << 16;
constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kSeedStream = 0x73656e74'72790000ULL;
/// Share of the shard-busy time by which the stage costs may exceed it.
constexpr double kStageTolerance = 0.02;

struct Air {
  sentry::LinkSourceConfig config;
  std::size_t frame_samples = 0;
  std::vector<cvec> captures;  ///< one per channel
};

/// Expected verdicts of `passes` back-to-back replays of a capture.
std::vector<ExpectedFrame> expected_frames(const Air& air, std::size_t passes) {
  std::vector<ExpectedFrame> frames;
  const std::size_t period = air.frame_samples + air.config.gap_samples;
  const std::size_t capture = air.captures[0].size();
  for (std::size_t p = 0; p < passes; ++p) {
    for (std::size_t k = 0; k < air.config.frames; ++k) {
      frames.push_back({p * capture + k * period,
                        sentry::LinkSource::is_attack_frame(air.config, k + 1)});
    }
  }
  return frames;
}

cvec synthesize(const sentry::LinkSourceConfig& config, std::size_t channel) {
  sentry::LinkSource source(config, channel);
  cvec stream;
  cvec block(4096);
  while (const std::size_t got = source.next_block(block)) {
    stream.insert(stream.end(), block.begin(), block.begin() + static_cast<std::ptrdiff_t>(got));
  }
  return stream;
}

sentry::ServiceConfig service_config() {
  sentry::ServiceConfig config;
  config.channels = kChannels;
  config.shards = kShards;
  config.scheduler = sentry::DrainScheduler::deficit_round_robin;
  return config;
}

/// One closed-loop service run over every channel's capture.
struct ServiceRun {
  double seconds = 0.0;
  sentry::ServiceReport report;
};

ServiceRun run_service(const Air& air, std::size_t passes) {
  sentry::SentryService service(service_config(), [&air, passes](std::size_t channel) {
    return std::make_unique<sentry::ReplaySource>(air.captures[channel], passes);
  });
  ServiceRun run;
  const std::int64_t start = now_ns();
  run.report = service.run();
  run.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  return run;
}

/// Checks one service run against ground truth; returns frames owed and
/// frames with no or a wrong verdict.
void score_service(const Air& air, const ServiceRun& run, std::size_t passes,
                   Outcome& outcome) {
  const std::vector<ExpectedFrame> frames = expected_frames(air, passes);
  outcome.check(run.report.channels.size() == kChannels, "service: wrong channel count");
  for (const sentry::ChannelReport& channel : run.report.channels) {
    outcome.check(channel.dropped == 0, "service: samples dropped in the throughput phase");
    outcome.check(channel.ingested == passes * air.captures[0].size(),
                  "service: ingested sample count differs from the capture");
    std::vector<ObservedVerdict> verdicts;
    outcome.check(parse_verdicts(channel.verdicts_jsonl, verdicts),
                  "service: unreadable verdict line");
    const MatchResult match = match_verdicts(frames, verdicts);
    outcome.check(match.structurally_ok(),
                  "service: a verdict at no frame position, or two for one frame");
    outcome.attempted += match.expected;
    outcome.failed += match.errors();
  }
}

std::unique_ptr<Air> set_up(const Options& options) {
  auto state = std::make_unique<Air>();
  Air& air = *state;
  air.config.environment = channel::Environment::awgn(15.0);
  air.config.frames = kCaptureFrames;
  air.config.attack_every = 3;
  air.config.payload_bytes = kPayloadBytes;
  zigbee::MacFrame probe_frame;
  probe_frame.payload.resize(kPayloadBytes);
  air.frame_samples = sentry::StreamScanner::ppdu_samples(
      probe_frame.serialize().size(), zigbee::ReceiverConfig{}.samples_per_chip);
  air.config.gap_samples = kGapFrames * air.frame_samples;
  air.config.seed = dsp::Rng::for_stream(options.seed ^ kSeedStream, 0).next_u64();
  air.captures.resize(kChannels);
  {
    std::vector<std::jthread> workers;
    for (std::size_t c = 0; c < kChannels; ++c) {
      workers.emplace_back([&air, c] { air.captures[c] = synthesize(air.config, c); });
    }
  }
  // Warm-up: one short service run (thread start-up, FFT plans, kernels).
  run_service(air, 1);
  return state;
}

/// Open-loop latency phase over channel 0's capture.
struct LatencyRun {
  std::vector<double> latency_ms;
  std::vector<double> lookahead_samples;
  std::vector<double> lag_ms;
  std::vector<double> depth;
  std::vector<ObservedVerdict> verdicts;
  std::size_t passes = 0;
  std::uint64_t samples = 0;
  double ring_ns = 0.0;  ///< push + peek/consume time
};

LatencyRun run_latency(const Air& air, double seconds) {
  LatencyRun run;
  const cvec& capture = air.captures[0];
  run.passes = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(seconds * kPacedRate /
                                            static_cast<double>(capture.size()))));
  run.samples = static_cast<std::uint64_t>(run.passes) * capture.size();
  sentry::SpscRing<cplx> ring(kLatencyRing);
  const std::int64_t t0 = now_ns() + 1'000'000;  // schedule starts in 1 ms
  const auto due_ns = [t0](std::uint64_t samples) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(samples) / kPacedRate * 1e9);
  };
  std::atomic<std::int64_t> push_ns{0};
  std::uint64_t pushed_to_scanner = 0;
  sentry::StreamScanner scanner(
      sentry::ScannerConfig{}, 0, [&](const sentry::VerdictRecord& record) {
        const std::int64_t now = now_ns();
        const std::uint64_t end = record.stream_position + record.frame_samples;
        run.latency_ms.push_back(static_cast<double>(now - due_ns(end)) * 1e-6);
        run.lookahead_samples.push_back(static_cast<double>(pushed_to_scanner - end));
        run.verdicts.push_back({record.stream_position, record.is_attack});
      });
  {
    // If the consumer throws, the jthread's destructor requests a stop, so
    // a producer waiting on a full ring still ends and is joined.
    std::jthread producer([&](std::stop_token stop) {
      sentry::ReplaySource source(capture, run.passes);
      cvec block(kPaceBlock);
      std::uint64_t released = 0;
      std::int64_t spent = 0;
      while (const std::size_t got = source.next_block(block)) {
        if (stop.stop_requested()) break;
        released += got;
        const std::int64_t due = due_ns(released);
        while (now_ns() < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
        }
        run.lag_ms.push_back(static_cast<double>(now_ns() - due) * 1e-6);
        std::span<const cplx> rest(block.data(), got);
        const std::int64_t start = now_ns();
        while (!rest.empty() && !stop.stop_requested()) {
          rest = rest.subspan(ring.try_push(rest));
        }
        spent += now_ns() - start;
      }
      push_ns.store(spent);
    });
    std::uint64_t consumed = 0;
    std::int64_t pop_ns = 0;
    while (consumed < run.samples) {
      const std::int64_t start = now_ns();
      const auto view = ring.peek(kLatencyRing);
      if (view.empty()) continue;  // spin: the paced producer never waits on us
      const std::size_t got = view.total();
      pop_ns += now_ns() - start;
      run.depth.push_back(static_cast<double>(got));
      pushed_to_scanner = consumed + view.first.size();
      scanner.push(view.first, got - view.first.size());
      if (!view.second.empty()) {
        pushed_to_scanner = consumed + got;
        scanner.push(view.second, 0);
      }
      const std::int64_t consume_start = now_ns();
      ring.consume(got);
      pop_ns += now_ns() - consume_start;
      consumed += got;
    }
    producer.join();
    run.ring_ns = static_cast<double>(pop_ns + push_ns.load());
  }
  pushed_to_scanner = run.samples;
  scanner.flush();
  return run;
}

void score_latency(const Air& air, const LatencyRun& run, Outcome& outcome) {
  const MatchResult match = match_verdicts(expected_frames(air, run.passes), run.verdicts);
  outcome.check(match.structurally_ok(),
                "latency: a verdict at no frame position, or two for one frame");
  outcome.attempted += match.expected;
  outcome.failed += match.errors();
}

/// Ingest and ring cost of the service's per-channel loop, replayed on the
/// calling thread: ReplaySource::next_block into a 4096-sample block, then
/// SpscRing::try_push, then peek + consume.
struct IngestProbe {
  double ingest_ns = 0.0;
  double push_ns = 0.0;
  std::uint64_t samples = 0;
};

IngestProbe probe_ingest(const cvec& capture, std::size_t passes, SpanRecorder& rec) {
  const sentry::ChannelConfig channel;
  sentry::ReplaySource source(capture, passes);
  sentry::SpscRing<cplx> ring(channel.ring_capacity);
  cvec block(channel.ingest_block);
  IngestProbe probe;
  std::int64_t ingest = 0;
  std::int64_t push = 0;
  for (;;) {
    const std::int64_t t0 = now_ns();
    const std::size_t got = source.next_block(block);
    const std::int64_t t1 = now_ns();
    if (got == 0) break;
    const std::size_t accepted = ring.try_push(std::span<const cplx>(block.data(), got));
    const auto view = ring.peek(accepted);
    ring.consume(view.total());
    const std::int64_t t2 = now_ns();
    rec.add("sentry.ingest", probe.samples, t0, t1);
    rec.add("sentry.ring", probe.samples, t1, t2);
    ingest += t1 - t0;
    push += t2 - t1;
    probe.samples += got;
  }
  probe.ingest_ns = static_cast<double>(ingest);
  probe.push_ns = static_cast<double>(push);
  return probe;
}

/// Throughput phase: service runs until `seconds` elapse (at least one).
struct Throughput {
  std::vector<double> msamples_per_s;
  std::vector<double> verdicts_per_s;
  double wall_s = 0.0;
  std::uint64_t ingested = 0;
  std::uint64_t dropped = 0;
  std::uint64_t verdicts = 0;
  std::uint64_t drain_turns = 0;
  std::uint64_t scan_rounds = 0;
  std::uint64_t sync_misses = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t frames_ok = 0;
};

Throughput run_throughput(const Air& air, double seconds, Outcome& outcome,
                          SpanRecorder& rec) {
  Throughput t;
  bool first = true;
  const std::int64_t start = now_ns();
  do {
    ServiceRun run;
    {
      ScopedSpan span(rec, "sentry.service", t.msamples_per_s.size());
      run = run_service(air, kReplayPasses);
    }
    score_service(air, run, kReplayPasses, outcome);
    if (first && !rec.enabled()) {
      // The verdict stream is a pure function of the seed: two runs at one
      // seed must print the same digest.
      Digest digest;
      digest.bytes(run.report.verdicts_jsonl.data(), run.report.verdicts_jsonl.size());
      char line[96];
      std::snprintf(line, sizeof line, "digest of the first service run's verdicts: %016llx",
                    static_cast<unsigned long long>(digest.value()));
      outcome.note(line);
      first = false;
    }
    const double ingested = static_cast<double>(run.report.total_ingested());
    t.msamples_per_s.push_back(ingested / run.seconds / 1e6);
    t.verdicts_per_s.push_back(static_cast<double>(run.report.total_verdicts()) / run.seconds);
    t.wall_s += run.seconds;
    t.ingested += run.report.total_ingested();
    t.dropped += run.report.total_dropped();
    t.verdicts += run.report.total_verdicts();
    for (const sentry::ChannelReport& channel : run.report.channels) {
      t.drain_turns += channel.drain_turns;
      t.scan_rounds += channel.scanner.scan_rounds;
      t.sync_misses += channel.scanner.sync_misses;
      t.frames_decoded += channel.scanner.frames_decoded;
      t.frames_ok += channel.scanner.frames_ok;
    }
  } while (static_cast<double>(now_ns() - start) * 1e-9 < seconds);
  return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Outcome run_sentry_air(const Options& options) {
  Outcome outcome;
  double setup_s = 0.0;
  const auto state = timed_setup(kSetupRepeats, setup_s, [&] { return set_up(options); });
  const Air& air = *state;
  outcome.check(air.captures[0].size() ==
                    kCaptureFrames * (air.frame_samples + air.config.gap_samples),
                "capture length differs from frames x (frame + gap)");
  char line[256];
  std::snprintf(line, sizeof line,
                "air: %zu-sample frames, %zu-sample gaps, %zu frames per capture, "
                "%zu samples per capture",
                air.frame_samples, air.config.gap_samples, air.config.frames,
                air.captures[0].size());
  outcome.note(line);

  // Untraced: the whole run, or the first half of a traced one, split
  // evenly between the two phases.
  const double phase_s = options.seconds / (options.trace ? 4.0 : 2.0);
  SpanRecorder off(false);
  const Throughput tp = run_throughput(air, phase_s, outcome, off);
  const LatencyRun lat = run_latency(air, phase_s);
  score_latency(air, lat, outcome);

  if (!options.trace) {
    outcome.set("setup_s", setup_s);
    outcome.set("msamples_per_s", median(tp.msamples_per_s));
    outcome.set("trials_per_s", median(tp.verdicts_per_s));
    outcome.set("verdict_latency_p50_ms", median(lat.latency_ms));
    outcome.set("verdict_ok_ratio", 1.0 - ratio(static_cast<double>(outcome.failed),
                                                static_cast<double>(outcome.attempted)));
    outcome.set("peak_rss_mb", peak_rss_mb());
    std::snprintf(line, sizeof line,
                  "throughput: %zu service runs, %.3f s; latency: %zu passes, "
                  "%zu verdicts",
                  tp.msamples_per_s.size(), tp.wall_s, lat.passes, lat.latency_ms.size());
    outcome.note(line);
    return outcome;
  }

  sim::telemetry::set_enabled(true);
  SpanRecorder rec(true);
  Throughput traced;
  LatencyRun traced_lat;
  IngestProbe ingest;
  const auto before = sim::telemetry::collect();
  {
    ScopedSpan root(rec, "bench.traced");
    traced = run_throughput(air, phase_s, outcome, rec);
    {
      ScopedSpan span(rec, "probe.ingest");
      ingest = probe_ingest(air.captures[0], kReplayPasses, rec);
    }
  }
  const auto after = sim::telemetry::collect();
  const auto delta = [&](const char* name) {
    return telemetry_sum(after, "sentry", name) - telemetry_sum(before, "sentry", name);
  };
  const auto delta_count = [&](const char* name) {
    return telemetry_count(after, "sentry", name) - telemetry_count(before, "sentry", name);
  };
  traced_lat = run_latency(air, phase_s);
  score_latency(air, traced_lat, outcome);
  sim::telemetry::set_enabled(false);

  const double samples = static_cast<double>(traced.ingested);
  // The stage timers must cover exactly the measured service runs.
  outcome.check(delta("ingested") == samples,
                "trace: sentry/ingested differs from the samples the service runs ingested");
  outcome.check(delta("samples_in") == samples,
                "trace: sentry/samples_in differs from the samples the service runs ingested");
  const double ingest_ns = ratio(ingest.ingest_ns, static_cast<double>(ingest.samples));
  const double push_ns = ratio(ingest.push_ns, static_cast<double>(ingest.samples));
  const double scan_ns = ratio(delta("scan_ns"), samples);
  const double decode_ns = ratio(delta("decode_ns"), samples);
  const double classify_ns = ratio(delta("classify_ns"), samples);
  const double write_ns = ratio(delta("write_ns"), samples);
  // Shard-busy time per sample: every shard works the whole run (its two
  // channels finish together within a capture pass).
  const double busy_ns = ratio(traced.wall_s * 1e9 * static_cast<double>(kShards), samples);
  outcome.set("sentry.ingest_ns_per_sample", ingest_ns);
  outcome.set("sentry.push_ns_per_sample", push_ns);
  outcome.set("sentry.scan_ns_per_sample", scan_ns);
  outcome.set("sentry.write_ns_per_verdict",
              ratio(delta("write_ns"), delta_count("write_ns")));
  const double unattributed_ns =
      busy_ns - ingest_ns - push_ns - scan_ns - decode_ns - classify_ns - write_ns;
  outcome.set("sentry.unattributed_ns_per_sample", unattributed_ns);
  outcome.check(unattributed_ns >= -kStageTolerance * busy_ns,
                "trace: sentry stage costs exceed the shard-busy time");
  outcome.set("sentry.sync_miss_ratio", ratio(static_cast<double>(traced.sync_misses),
                                              static_cast<double>(traced.scan_rounds)));
  outcome.set("sentry.drain_turns_per_msample",
              ratio(static_cast<double>(traced.drain_turns), samples / 1e6));
  outcome.set("sentry.decode_us_per_frame",
              ratio(delta("decode_ns"), delta_count("decode_ns")) / 1e3);
  outcome.set("sentry.classify_us_per_frame",
              ratio(delta("classify_ns"), delta_count("classify_ns")) / 1e3);
  // Reported per layer: on a shared host the p99 does not repeat within a
  // tenth from run to run (scheduling delays of the spinning consumer).
  report_tail(traced_lat.latency_ms, "sentry.verdict_latency_p99_ms", outcome);
  outcome.set("sentry.frames_ok_ratio", ratio(static_cast<double>(traced.frames_ok),
                                              static_cast<double>(traced.frames_decoded)));
  outcome.set("sentry.dropped_ratio", ratio(static_cast<double>(traced.dropped), samples));
  outcome.set("zigbee.rx_frame_ok_ratio", ratio(static_cast<double>(traced.frames_ok),
                                                static_cast<double>(traced.frames_decoded)));
  outcome.set("zigbee.rx_us_per_frame",
              ratio(delta("decode_ns"), delta_count("decode_ns")) / 1e3);
  outcome.set("defense.classify_us_per_frame",
              ratio(delta("classify_ns"), delta_count("classify_ns")) / 1e3);
  outcome.set("defense.usable_ratio",
              ratio(static_cast<double>(traced.verdicts), static_cast<double>(traced.frames_decoded)));
  outcome.set("sentry.lookahead_ms", median(traced_lat.lookahead_samples) / kPacedRate * 1e3);
  outcome.set("sentry.ring_ns_per_sample",
              ratio(traced_lat.ring_ns, static_cast<double>(traced_lat.samples)));
  outcome.set("sentry.ring_depth_p99", tail_percentile(traced_lat.depth, 99.0).value);
  outcome.set("sentry.generator_lag_ms", tail_percentile(traced_lat.lag_ms, 99.0).value);
  outcome.set("bench.trace_overhead_ratio",
              ratio(median(tp.msamples_per_s), median(traced.msamples_per_s)));
  std::snprintf(line, sizeof line,
                "sentry busy %.2f ns/sample = ingest %.2f + push %.2f (both from the "
                "probe) + scan %.2f + decode %.2f + classify %.2f + write %.2f + "
                "unattributed %.2f (must be >= %.2f)",
                busy_ns, ingest_ns, push_ns, scan_ns, decode_ns, classify_ns, write_ns,
                unattributed_ns, -kStageTolerance * busy_ns);
  outcome.note(line);
  finish_trace(rec, options, outcome);
  return outcome;
}

}  // namespace perfbench
