// Always-on, low-overhead observability for the simulation pipeline.
//
// Every hot stage of a trial (ZigBee TX -> attack emulation -> channel ->
// DSSS RX -> cumulant defense) records per-stage counters, value gauges,
// log2-bucketed histograms and RAII timing spans through the CTC_TELEM_*
// macros below. The design goals, in order:
//
//   1. Zero cost when off. The runtime master switch (`set_enabled`) gates
//      every macro behind one relaxed atomic load; compiling with
//      -DCTC_TELEMETRY_DISABLED removes the instrumentation entirely.
//   2. Deterministic output. All recording lands in thread-local frames —
//      never a shared atomic — and `sim::TrialEngine` captures each trial's
//      frame as a snapshot (TrialScope) and commits the snapshots at
//      reduction time in trial-index order, the same fixed order the result
//      aggregates fold in. Floating-point accumulation order is therefore a
//      pure function of the seed and trial count, so the telemetry JSON is
//      bit-stable across thread counts. Wall-clock *values* (timer sums,
//      bucket placement) are inherently nondeterministic; emitters exclude
//      timer metrics from determinism-checked output (`include_timers`).
//   3. No registration ceremony. Metrics self-register by (stage, name) on
//      first use; ids are process-local and output is sorted by name, so
//      registration order never leaks into the JSON.
//
// The JSON schema and the merge rule are documented in docs/TELEMETRY.md.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "json/json.h"

namespace ctc::sim::telemetry {

/// Bumped whenever the emitted JSON layout changes shape.
inline constexpr int kSchemaVersion = 1;

/// Log2 bucket count: bucket b holds values in [2^(b-1), 2^b - 1] (bucket 0
/// holds exactly 0), so 48 buckets cover u64 values up to ~2^47 — about 39
/// hours when the value is nanoseconds.
inline constexpr std::size_t kHistoBuckets = 48;

enum class Kind : std::uint8_t { counter, gauge, histo, timer };

const char* kind_name(Kind kind);

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Runtime master switch. Off by default; the bench CLI turns it on for
/// --telemetry runs. Reading it is one relaxed atomic load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

using MetricId = std::uint32_t;

/// Accumulated state of one metric. The same layout serves all four kinds:
/// counters use {count, sum}, gauges add {min, max}, histograms and timers
/// add the log2 buckets.
struct Cell {
  std::uint64_t count = 0;  ///< increments / observations
  double sum = 0.0;         ///< counter total, gauge sum, timer ns sum
  double min = 0.0;         ///< meaningful only when count > 0
  double max = 0.0;
  std::array<std::uint64_t, kHistoBuckets> buckets{};

  bool empty() const { return count == 0; }
  /// Folds `other` into this cell. Double sums are order-sensitive; callers
  /// that need bit-stable output must merge in a fixed order (the engine
  /// merges per-trial snapshots in trial-index order).
  void merge(const Cell& other);
};

/// Bucket index of a u64 value: std::bit_width clamped to the table.
std::size_t bucket_index(std::uint64_t value);
/// Smallest value that lands in bucket `bucket` (0 for bucket 0).
std::uint64_t bucket_lower_bound(std::size_t bucket);

/// Registers (or looks up) the metric (stage, name). Idempotent and
/// thread-safe; the kind of the first registration wins. Cheap enough to
/// hide behind a function-local static at every instrumentation site.
MetricId register_metric(Kind kind, const char* stage, const char* name);

// -- Recording (thread-local, lock-free; call only when enabled()) ----------
void add_count(MetricId id, std::uint64_t delta);
void observe(MetricId id, double value);              // gauge
void record_histo(MetricId id, std::uint64_t value);  // log2-bucketed
void record_timer(MetricId id, std::uint64_t nanoseconds);

/// Nanoseconds since `start` on the steady clock.
inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// RAII timing span: records elapsed ns into a timer metric on destruction.
/// Instantiate via CTC_TELEM_TIMER so the whole object disappears under
/// CTC_TELEMETRY_DISABLED. Takes the metric id shifted by one so that 0 can
/// mean "inert" — the macro resolves the id only when telemetry is enabled,
/// keeping the disabled path to a single atomic load. `carry`, when given,
/// holds the time earlier laps of the same operation left there
/// (CTC_TELEM_LAP); it is folded into this span's one observation, so an
/// operation split across calls still counts once.
class ScopedTimer {
 public:
  explicit ScopedTimer(MetricId id_plus_one,
                       const std::uint64_t* carry = nullptr)
      : carry_(carry) {
    if (id_plus_one != 0) {
      id_ = id_plus_one - 1;
      active_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (active_) {
      record_timer(id_, elapsed_ns(start_) + (carry_ != nullptr ? *carry_ : 0));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  MetricId id_ = 0;
  bool active_ = false;
  const std::uint64_t* carry_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

/// RAII lap: adds its elapsed ns to `*carry` instead of recording an
/// observation (null `carry` = inert). Instantiate via CTC_TELEM_LAP.
class LapTimer {
 public:
  explicit LapTimer(std::uint64_t* carry) : carry_(carry) {
    if (carry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~LapTimer() {
    if (carry_ != nullptr) *carry_ += elapsed_ns(start_);
  }
  LapTimer(const LapTimer&) = delete;
  LapTimer& operator=(const LapTimer&) = delete;

 private:
  std::uint64_t* carry_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

/// Everything one engine trial recorded: the unit of deterministic merging.
struct TrialSnapshot {
  std::vector<std::pair<MetricId, Cell>> cells;
  bool empty() const { return cells.empty(); }
};

/// Isolates the telemetry of one trial. The engine constructs a TrialScope
/// around the trial functor on the worker thread, `capture()`s the trial's
/// frame into a TrialSnapshot, and later `commit()`s the snapshots in
/// trial-index order on the reducing thread. Nesting is supported (the
/// outer frame is saved and restored) so engine runs may nest inside other
/// instrumented code. When telemetry is disabled the scope is inert.
class TrialScope {
 public:
  TrialScope();
  ~TrialScope();
  TrialScope(const TrialScope&) = delete;
  TrialScope& operator=(const TrialScope&) = delete;

  /// Takes the telemetry recorded since construction (at most once).
  TrialSnapshot capture();

 private:
  bool active_ = false;
};

/// Merges one trial's snapshot into the global accumulator. Deterministic
/// iff callers commit in a fixed order — the engine's reduction loop does.
void commit(TrialSnapshot&& snapshot);

/// True while the calling thread is inside an active TrialScope, i.e. the
/// code is running as an engine trial whose telemetry will be committed in
/// trial-index order.
bool in_trial_scope();

/// RAII guard that drops everything the calling thread records while it is
/// alive. Shared lazily-built caches (e.g. the link's waveform cache) wrap
/// their fill in one when the fill happens *inside* an engine trial: which
/// trial wins the fill race is scheduling-dependent, so attributing the
/// synthesis telemetry to it would make the merged double sums depend on
/// thread count. Fills outside trials (Link::prime, serial callers) record
/// normally. Nestable; inert while telemetry is disabled.
class SuppressScope {
 public:
  SuppressScope();
  ~SuppressScope();
  SuppressScope(const SuppressScope&) = delete;
  SuppressScope& operator=(const SuppressScope&) = delete;

 private:
  bool active_ = false;
};

/// One metric with its accumulated cell, as returned by collect().
struct MetricValue {
  std::string stage;
  std::string name;
  Kind kind = Kind::counter;
  Cell cell;
};

/// Folds the calling thread's frame into the global accumulator and returns
/// every non-empty metric sorted by (stage, name) — the only order the
/// output ever uses, so lazily-assigned ids never leak into the JSON.
std::vector<MetricValue> collect();

/// Clears the global accumulator and the calling thread's frame (other
/// threads' frames are untouched; the engine's workers never hold telemetry
/// between trials, so after a run this resets everything that matters).
void reset();

/// Renders metrics as a JSON document:
///   {"telemetry_schema":1,<header fields>,"metrics":[{...},...]}
/// `header` fields (e.g. {"bench", name}) follow the schema version in
/// their given order. With include_timers == false, timer metrics are
/// dropped — that subset is bit-stable across thread counts and safe for
/// determinism diffs; wall-clock timer values are not.
Json to_json(const std::vector<MetricValue>& metrics, bool include_timers,
             Json::Object header = {});

}  // namespace ctc::sim::telemetry

// ---------------------------------------------------------------------------
// Instrumentation macros. Each site pays one relaxed atomic load when the
// layer is off; defining CTC_TELEMETRY_DISABLED compiles all of them away
// ((void)sizeof keeps arguments semantically checked but unevaluated).
// ---------------------------------------------------------------------------
#define CTC_TELEM_CAT2(a, b) a##b
#define CTC_TELEM_CAT(a, b) CTC_TELEM_CAT2(a, b)

#if defined(CTC_TELEMETRY_DISABLED)

#define CTC_TELEM_COUNT(stage, name, delta) \
  do {                                      \
    (void)sizeof(delta);                    \
  } while (0)
#define CTC_TELEM_GAUGE(stage, name, value) \
  do {                                      \
    (void)sizeof(value);                    \
  } while (0)
#define CTC_TELEM_HISTO(stage, name, value) \
  do {                                      \
    (void)sizeof(value);                    \
  } while (0)
#define CTC_TELEM_TIMER(stage, name, ...) \
  do {                                    \
  } while (0)
#define CTC_TELEM_LAP(carry)  \
  do {                        \
    (void)sizeof(carry);      \
  } while (0)

#else

#define CTC_TELEM_COUNT(stage, name, delta)                                  \
  do {                                                                       \
    if (::ctc::sim::telemetry::enabled()) {                                  \
      static const ::ctc::sim::telemetry::MetricId ctc_telem_id =            \
          ::ctc::sim::telemetry::register_metric(                            \
              ::ctc::sim::telemetry::Kind::counter, stage, name);            \
      ::ctc::sim::telemetry::add_count(                                      \
          ctc_telem_id, static_cast<std::uint64_t>(delta));                  \
    }                                                                        \
  } while (0)

#define CTC_TELEM_GAUGE(stage, name, value)                                  \
  do {                                                                       \
    if (::ctc::sim::telemetry::enabled()) {                                  \
      static const ::ctc::sim::telemetry::MetricId ctc_telem_id =            \
          ::ctc::sim::telemetry::register_metric(                            \
              ::ctc::sim::telemetry::Kind::gauge, stage, name);              \
      ::ctc::sim::telemetry::observe(ctc_telem_id,                           \
                                     static_cast<double>(value));            \
    }                                                                        \
  } while (0)

#define CTC_TELEM_HISTO(stage, name, value)                                  \
  do {                                                                       \
    if (::ctc::sim::telemetry::enabled()) {                                  \
      static const ::ctc::sim::telemetry::MetricId ctc_telem_id =            \
          ::ctc::sim::telemetry::register_metric(                            \
              ::ctc::sim::telemetry::Kind::histo, stage, name);              \
      ::ctc::sim::telemetry::record_histo(                                   \
          ctc_telem_id, static_cast<std::uint64_t>(value));                  \
    }                                                                        \
  } while (0)

// The ScopedTimer must be a block-scope object (it records at scope exit),
// so the lazy id registration lives in a helper lambda resolved only when
// the layer is enabled (0 = inert sentinel, see ScopedTimer).
// Optional third argument: a std::uint64_t carry that CTC_TELEM_LAP spans
// filled earlier; the timer records carry + its own span as one observation.
#define CTC_TELEM_TIMER(stage, name, ...)                                    \
  const ::ctc::sim::telemetry::ScopedTimer CTC_TELEM_CAT(                    \
      ctc_telem_timer_, __LINE__)(                                           \
      ::ctc::sim::telemetry::enabled()                                       \
          ? []() -> ::ctc::sim::telemetry::MetricId {                        \
              static const ::ctc::sim::telemetry::MetricId ctc_telem_id =    \
                  ::ctc::sim::telemetry::register_metric(                    \
                      ::ctc::sim::telemetry::Kind::timer, stage, name);      \
              return ctc_telem_id + 1;                                       \
            }()                                                              \
          : 0 __VA_OPT__(, &(__VA_ARGS__)))
// Times the first part of an operation into `carry` (a std::uint64_t the
// caller zeroes per operation) without recording anything.
#define CTC_TELEM_LAP(carry)                                                 \
  const ::ctc::sim::telemetry::LapTimer CTC_TELEM_CAT(ctc_telem_lap_,        \
                                                      __LINE__)(             \
      ::ctc::sim::telemetry::enabled() ? &(carry) : nullptr)

#endif  // CTC_TELEMETRY_DISABLED
