// The sentry service: N independent channels sharded across worker threads.
//
// Each channel is a deterministic pipeline — pull one ingest block from its
// SampleSource, push it into the channel's SPSC ring (overflow = dropped,
// counted exactly), then feed the channel's StreamScanner straight from
// ring storage via the zero-copy peek/consume API (no staging buffer; the
// producer cannot overwrite unconsumed slots, so the scanner reads the
// ring's memory directly and the samples are retired only afterwards).
// Running ingest and drain on one thread keeps every queue depth, drop
// count, and verdict a pure function of the source configuration:
// replaying a capture yields byte-identical verdict JSONL at any shard
// count, which is the property the replay CI gate diffs. (The ring is
// still exercised through its atomic producer/consumer protocol; the
// free-running two-thread arrangement is covered by the TSan stress test
// and by perfbench's sentry-air latency phase.)
//
// Two drain schedulers (ServiceConfig::scheduler):
//
//   * lockstep — the historical reference: each channel runs start to
//     finish on its worker, at most one drain block per ingest block.
//     Fully shard-invariant in every scenario, including overload.
//   * deficit_round_robin (default) — a shard's channels advance in
//     deterministic rounds: one ingest block each, then a deficit-weighted
//     drain budget each (backlogged channels earn proportionally more,
//     floor of one block, so no channel starves). Provably byte-identical
//     to lockstep for single-channel shards and whenever nothing drops
//     (the deficit floor covers the whole backlog); under MULTI-channel
//     overload the weights couple a shard's channels, so verdicts depend
//     on the channel-to-shard assignment — use lockstep when a shard-
//     invariant overload reference is needed (see docs/SENTRY.md).
//
// Overload is modeled deterministically: configure drain_block smaller than
// ingest_block and the ring fills at a fixed rate, dropping exactly
// ingested - accepted samples at the ingest boundary — the monitor sheds
// load instead of stalling, and the books always balance.
//
// Determinism across shards: worker w runs channels w, w+shards, ... — but
// every channel is self-contained (own source, ring, scanner, RNG stream,
// verdict buffer), so shard assignment only changes WHO runs a channel,
// never what it computes (lockstep always; DRR outside multi-channel
// overload). Telemetry is captured per channel — one TrialScope per
// channel under lockstep, per-phase slices merged in channel-chronological
// order under DRR — and committed in channel order after the workers join,
// the same commit-in-order discipline sim::TrialEngine uses.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sentry/frame_sync.h"
#include "sentry/ring_buffer.h"
#include "sentry/source.h"

namespace ctc::sentry {

struct ChannelConfig {
  ScannerConfig scanner;
  /// SPSC ring capacity in samples (power of two).
  std::size_t ring_capacity = std::size_t{1} << 15;
  /// Samples pulled from the source per lockstep iteration.
  std::size_t ingest_block = 4096;
  /// Samples popped toward the scanner per iteration. Smaller than
  /// ingest_block => deterministic overload (the ring fills and drops).
  std::size_t drain_block = 4096;
};

/// How a shard divides drain bandwidth among its channels (header comment).
enum class DrainScheduler {
  lockstep,             ///< one drain block per ingest block, channel at a time
  deficit_round_robin,  ///< backlog-weighted round-robin across the shard
};

struct ServiceConfig {
  ChannelConfig channel;
  std::size_t channels = 1;
  /// Worker threads the channels are sharded across (clamped to channels).
  std::size_t shards = 1;
  DrainScheduler scheduler = DrainScheduler::deficit_round_robin;
};

/// Everything one channel produced, exact to the sample.
struct ChannelReport {
  std::uint64_t ingested = 0;  ///< samples the source emitted
  std::uint64_t accepted = 0;  ///< samples that entered the ring
  std::uint64_t dropped = 0;   ///< ingested - accepted, shed at ingest
  /// Drain turns that moved >= 1 sample to the scanner. A starvation
  /// signal for the scheduler smoke test; not serialized into verdicts.
  std::uint64_t drain_turns = 0;
  ScannerStats scanner;
  std::string verdicts_jsonl;  ///< one line per verdict, '\n'-terminated
};

struct ServiceReport {
  std::vector<ChannelReport> channels;
  /// Per-channel verdict streams concatenated in channel order — the
  /// byte sequence the replay-determinism gate compares.
  std::string verdicts_jsonl;

  std::uint64_t total_ingested() const;
  std::uint64_t total_dropped() const;
  std::uint64_t total_quarantined() const;
  std::uint64_t total_verdicts() const;
  std::uint64_t total_attacks() const;
};

/// Bumped whenever the counter snapshot layout changes shape.
inline constexpr int kSnapshotSchemaVersion = 1;

/// Live progress counters for the snapshot endpoint. Relaxed atomics bumped
/// by whichever worker makes progress: cheap, monotonic, and approximate
/// while running; exact once join() returns. Never used for control flow.
struct SentryCounters {
  std::atomic<std::uint64_t> ingested{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> frames_detected{0};
  std::atomic<std::uint64_t> verdicts{0};
  std::atomic<std::uint64_t> attacks{0};

  /// One JSON line: {"sentry_snapshot_schema":kSnapshotSchemaVersion,...}.
  std::string snapshot_json() const;
};

class SentryService {
 public:
  /// Builds the per-channel sample source; called once per channel, on the
  /// worker that runs the channel. Must be thread-safe for distinct
  /// channels.
  using SourceFactory =
      std::function<std::unique_ptr<SampleSource>(std::size_t channel)>;

  SentryService(ServiceConfig config, SourceFactory make_source);
  ~SentryService();
  SentryService(const SentryService&) = delete;
  SentryService& operator=(const SentryService&) = delete;

  /// Spawns the shard workers and returns immediately; counters() is live
  /// from here until join().
  void start();

  /// Waits for every channel to finish, commits per-channel telemetry in
  /// channel order, and returns the exact report. Rethrows the first
  /// channel's exception (by channel order) if any worker failed.
  ServiceReport join();

  /// start() + join().
  ServiceReport run();

  const SentryCounters& counters() const { return counters_; }

 private:
  void run_shard_lockstep(std::size_t shard, std::size_t shards);
  void run_shard_drr(std::size_t shard, std::size_t shards);

  struct Impl;
  std::unique_ptr<Impl> impl_;
  ServiceConfig config_;
  SourceFactory make_source_;
  SentryCounters counters_;
};

}  // namespace ctc::sentry
