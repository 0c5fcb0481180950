#include "sentry/service.h"

#include <algorithm>
#include <exception>
#include <thread>
#include <utility>

#include "dsp/require.h"
#include "json/json.h"
#include "sim/telemetry.h"

namespace ctc::sentry {

std::uint64_t ServiceReport::total_ingested() const {
  std::uint64_t total = 0;
  for (const ChannelReport& channel : channels) total += channel.ingested;
  return total;
}

std::uint64_t ServiceReport::total_dropped() const {
  std::uint64_t total = 0;
  for (const ChannelReport& channel : channels) total += channel.dropped;
  return total;
}

std::uint64_t ServiceReport::total_quarantined() const {
  std::uint64_t total = 0;
  for (const ChannelReport& channel : channels) {
    total += channel.scanner.samples_quarantined;
  }
  return total;
}

std::uint64_t ServiceReport::total_verdicts() const {
  std::uint64_t total = 0;
  for (const ChannelReport& channel : channels) {
    total += channel.scanner.verdicts;
  }
  return total;
}

std::uint64_t ServiceReport::total_attacks() const {
  std::uint64_t total = 0;
  for (const ChannelReport& channel : channels) {
    total += channel.scanner.verdicts_attack;
  }
  return total;
}

std::string SentryCounters::snapshot_json() const {
  Json snapshot = Json::object();
  snapshot.set("sentry_snapshot_schema", kSnapshotSchemaVersion);
  snapshot.set("ingested", ingested.load(std::memory_order_relaxed));
  snapshot.set("accepted", accepted.load(std::memory_order_relaxed));
  snapshot.set("dropped", dropped.load(std::memory_order_relaxed));
  snapshot.set("frames_detected",
               frames_detected.load(std::memory_order_relaxed));
  snapshot.set("verdicts", verdicts.load(std::memory_order_relaxed));
  snapshot.set("attacks", attacks.load(std::memory_order_relaxed));
  return snapshot.dump();
}

struct SentryService::Impl {
  std::vector<std::thread> workers;
  std::vector<ChannelReport> reports;
  std::vector<sim::telemetry::TrialSnapshot> snapshots;
  std::vector<std::exception_ptr> errors;
  bool started = false;
  bool joined = false;
};

SentryService::SentryService(ServiceConfig config, SourceFactory make_source)
    : impl_(std::make_unique<Impl>()),
      config_(config),
      make_source_(std::move(make_source)) {
  CTC_REQUIRE(config_.channels >= 1);
  CTC_REQUIRE(config_.shards >= 1);
  CTC_REQUIRE(config_.channel.ingest_block >= 1);
  CTC_REQUIRE(config_.channel.drain_block >= 1);
  CTC_REQUIRE(make_source_ != nullptr);
}

SentryService::~SentryService() {
  for (std::thread& worker : impl_->workers) {
    if (worker.joinable()) worker.join();
  }
}

namespace {

// Deficit-round-robin tuning, in drain_block units. The deficit cap bounds
// how much unused credit a stalled channel can bank; the budget cap bounds
// how long one channel can hold the worker in a single turn.
constexpr std::size_t kDeficitCapBlocks = 8;
constexpr std::size_t kBudgetCapBlocks = 4;

/// One channel's whole pipeline state: source, ring, scanner, books. Both
/// schedulers drive channels through the same three verbs — ingest_once(),
/// drain(), finish() — so the per-sample accounting and the zero-copy
/// drain path are scheduler-independent by construction. Heap-allocated
/// and pinned (the verdict callback captures `this`).
struct ChannelRun {
  const ChannelConfig& config;
  std::size_t channel;
  std::unique_ptr<SampleSource> source;
  SentryCounters& counters;
  ChannelReport report;
  SpscRing<cplx> ring;
  StreamScanner scanner;
  cvec ingest;
  std::size_t deficit = 0;  ///< banked drain credit (DRR only)
  bool source_done = false;
  bool flushed = false;

  ChannelRun(const ChannelConfig& cfg, std::size_t index,
             std::unique_ptr<SampleSource> src, SentryCounters& ctrs)
      : config(cfg),
        channel(index),
        source(std::move(src)),
        counters(ctrs),
        ring(cfg.ring_capacity),
        scanner(cfg.scanner, index,
                [this](const VerdictRecord& record) {
                  CTC_TELEM_TIMER("sentry", "write_ns");
                  record.append_jsonl(report.verdicts_jsonl);
                  counters.verdicts.fetch_add(1, std::memory_order_relaxed);
                  if (record.is_attack) {
                    counters.attacks.fetch_add(1, std::memory_order_relaxed);
                  }
                }),
        ingest(cfg.ingest_block) {}
  ChannelRun(const ChannelRun&) = delete;
  ChannelRun& operator=(const ChannelRun&) = delete;

  std::size_t backlog() const { return ring.size(); }
  bool finished() const { return flushed; }

  /// Pulls one block from the source into the ring (overflow = dropped,
  /// counted exactly). Returns false once the source is exhausted.
  bool ingest_once() {
    if (source_done) return false;
    const std::size_t produced = source->next_block(std::span<cplx>(ingest));
    if (produced == 0) {
      source_done = true;
      return false;
    }
    const std::size_t accepted =
        ring.try_push(std::span<const cplx>(ingest.data(), produced));
    report.ingested += produced;
    report.accepted += accepted;
    report.dropped += produced - accepted;
    counters.ingested.fetch_add(produced, std::memory_order_relaxed);
    counters.accepted.fetch_add(accepted, std::memory_order_relaxed);
    counters.dropped.fetch_add(produced - accepted,
                               std::memory_order_relaxed);
    CTC_TELEM_COUNT("sentry", "ingested", produced);
    if (produced != accepted) {
      CTC_TELEM_COUNT("sentry", "dropped", produced - accepted);
    }
    return true;
  }

  /// Feeds the scanner up to `want` queued samples straight from ring
  /// storage (zero-copy: peek spans, push, then consume — the producer
  /// cannot touch unconsumed slots, so no staging buffer is needed). A
  /// wrapped region arrives as two pushes carrying the same depth stamp;
  /// the scanner's output is a function of the sample stream alone, not
  /// of push partitioning. Returns samples drained.
  std::size_t drain(std::size_t want) {
    const auto view = ring.peek(want);
    const std::size_t got = view.total();
    if (got == 0) return 0;
    // Queue depth AFTER this drain retires = what is still waiting when
    // the block reaches the scanner; dropped total lets the verdict
    // record carry the books so far.
    const std::size_t depth_after = ring.size() - got;
    scanner.push(view.first, depth_after, report.dropped);
    if (!view.second.empty()) {
      scanner.push(view.second, depth_after, report.dropped);
    }
    ring.consume(got);
    ++report.drain_turns;
    return got;
  }

  /// Source exhausted and ring empty: flush the scanner tail and settle
  /// the books.
  void finish() {
    CTC_REQUIRE(source_done && ring.empty() && !flushed);
    scanner.flush();
    flushed = true;
    report.scanner = scanner.stats();
    counters.frames_detected.fetch_add(report.scanner.frames_detected,
                                       std::memory_order_relaxed);
    // The books must balance exactly: every produced sample was either
    // accepted (and eventually scanned) or dropped at ingest.
    CTC_REQUIRE(report.accepted + report.dropped == report.ingested);
    CTC_REQUIRE(report.scanner.samples_in == report.accepted);
  }
};

/// The historical reference schedule: one channel start to finish, at most
/// one drain block per ingest block (when drain_block < ingest_block the
/// ring fills at a fixed rate and overload drops are exact and
/// reproducible), then drain the backlog and flush.
void run_lockstep(ChannelRun& run) {
  while (run.ingest_once()) {
    run.drain(run.config.drain_block);
  }
  while (run.drain(run.config.drain_block) > 0) {
  }
  run.finish();
}

/// Folds one telemetry slice into a channel's accumulated snapshot. Merge
/// order is channel-chronological (the shard loop visits a channel's
/// phases in round order), so the per-channel result is independent of
/// which shard ran the channel whenever the drain sequence itself is
/// (see the header comment on DRR shard-invariance).
void merge_slice(sim::telemetry::TrialSnapshot& into,
                 sim::telemetry::TrialSnapshot&& slice) {
  for (auto& [id, cell] : slice.cells) {
    auto it = std::find_if(
        into.cells.begin(), into.cells.end(),
        [id = id](const auto& entry) { return entry.first == id; });
    if (it == into.cells.end()) {
      into.cells.emplace_back(id, cell);
    } else {
      it->second.merge(cell);
    }
  }
}

}  // namespace

void SentryService::start() {
  CTC_REQUIRE_MSG(!impl_->started, "SentryService::start called twice");
  impl_->started = true;

  const std::size_t shards = std::min(config_.shards, config_.channels);
  impl_->reports.resize(config_.channels);
  impl_->snapshots.resize(config_.channels);
  impl_->errors.resize(config_.channels);

  impl_->workers.reserve(shards);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    impl_->workers.emplace_back([this, shard, shards] {
      if (config_.scheduler == DrainScheduler::lockstep) {
        run_shard_lockstep(shard, shards);
      } else {
        run_shard_drr(shard, shards);
      }
    });
  }
}

void SentryService::run_shard_lockstep(std::size_t shard,
                                       std::size_t shards) {
  for (std::size_t channel = shard; channel < config_.channels;
       channel += shards) {
    sim::telemetry::TrialScope scope;
    try {
      std::unique_ptr<SampleSource> source = make_source_(channel);
      CTC_REQUIRE(source != nullptr);
      ChannelRun run(config_.channel, channel, std::move(source), counters_);
      run_lockstep(run);
      impl_->reports[channel] = std::move(run.report);
    } catch (...) {
      impl_->errors[channel] = std::current_exception();
    }
    impl_->snapshots[channel] = scope.capture();
  }
}

void SentryService::run_shard_drr(std::size_t shard, std::size_t shards) {
  // The shard's channels, in channel order; a slot goes null once the
  // channel finishes (report harvested) or fails (error recorded).
  std::vector<std::unique_ptr<ChannelRun>> runs;
  std::vector<std::size_t> ids;
  for (std::size_t channel = shard; channel < config_.channels;
       channel += shards) {
    ids.push_back(channel);
    sim::telemetry::TrialScope scope;
    try {
      std::unique_ptr<SampleSource> source = make_source_(channel);
      CTC_REQUIRE(source != nullptr);
      runs.push_back(std::make_unique<ChannelRun>(
          config_.channel, channel, std::move(source), counters_));
    } catch (...) {
      impl_->errors[channel] = std::current_exception();
      runs.push_back(nullptr);
    }
    merge_slice(impl_->snapshots[channel], scope.capture());
  }

  const std::size_t drain_block = config_.channel.drain_block;
  // Runs one channel phase under its own telemetry slice; on failure the
  // channel is retired with its error recorded, like a lockstep worker.
  const auto phase = [&](std::size_t i, auto&& body) {
    sim::telemetry::TrialScope scope;
    try {
      body(*runs[i]);
    } catch (...) {
      impl_->errors[ids[i]] = std::current_exception();
      runs[i] = nullptr;
    }
    merge_slice(impl_->snapshots[ids[i]], scope.capture());
  };

  for (;;) {
    bool live_any = false;
    // Phase 1: one ingest block per channel with a live source.
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (!runs[i] || runs[i]->finished()) continue;
      live_any = true;
      if (!runs[i]->source_done) {
        phase(i, [](ChannelRun& run) { run.ingest_once(); });
      }
    }
    if (!live_any) break;

    // Phase 2: backlog-proportional weights over this round's backlogged
    // channels. Integer arithmetic only — the schedule must be exactly
    // reproducible.
    std::size_t total_backlog = 0;
    std::size_t backlogged = 0;
    for (const auto& run : runs) {
      if (!run || run->finished()) continue;
      const std::size_t queued = run->backlog();
      total_backlog += queued;
      if (queued > 0) ++backlogged;
    }

    // Phase 3: deficit-weighted drain, channel order. Weight floor 1 block
    // so no backlogged channel starves; a channel holding most of the
    // shard's backlog earns proportionally more credit.
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (!runs[i] || runs[i]->finished()) continue;
      const std::size_t queued = runs[i]->backlog();
      if (queued == 0) {
        runs[i]->deficit = 0;
        continue;
      }
      const std::size_t weight =
          std::max<std::size_t>(1, queued * backlogged / total_backlog);
      ChannelRun& run = *runs[i];
      run.deficit = std::min(run.deficit + weight * drain_block,
                             kDeficitCapBlocks * drain_block);
      const std::size_t budget = std::min(
          {run.deficit, queued, kBudgetCapBlocks * drain_block});
      phase(i, [budget](ChannelRun& r) {
        const std::size_t drained = r.drain(budget);
        r.deficit -= drained;
        if (r.ring.empty()) r.deficit = 0;
      });
    }

    // Phase 4: channels whose source is dry and ring is empty flush and
    // hand in their report.
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (!runs[i] || runs[i]->finished()) continue;
      if (runs[i]->source_done && runs[i]->ring.empty()) {
        phase(i, [](ChannelRun& run) { run.finish(); });
        if (runs[i] && runs[i]->finished()) {
          impl_->reports[ids[i]] = std::move(runs[i]->report);
          runs[i] = nullptr;
        }
      }
    }
  }
}

ServiceReport SentryService::join() {
  CTC_REQUIRE_MSG(impl_->started, "SentryService::join before start");
  CTC_REQUIRE_MSG(!impl_->joined, "SentryService::join called twice");
  impl_->joined = true;

  for (std::thread& worker : impl_->workers) worker.join();
  impl_->workers.clear();

  // Commit telemetry in channel order — the same fixed-order merge the
  // trial engine uses, so the telemetry JSON is shard-count independent.
  for (sim::telemetry::TrialSnapshot& snapshot : impl_->snapshots) {
    sim::telemetry::commit(std::move(snapshot));
  }
  for (const std::exception_ptr& error : impl_->errors) {
    if (error) std::rethrow_exception(error);
  }

  ServiceReport report;
  report.channels = std::move(impl_->reports);
  for (const ChannelReport& channel : report.channels) {
    report.verdicts_jsonl += channel.verdicts_jsonl;
  }
  return report;
}

ServiceReport SentryService::run() {
  start();
  return join();
}

}  // namespace ctc::sentry
