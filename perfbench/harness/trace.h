// In-memory span recorder for the traced run.
//
// A span is one timed call the benchmark makes into a layer: a name of the
// form "<layer>.<what>", its start and end on the steady clock, the span
// that encloses it, and the trial or frame it belongs to. Spans are kept in
// memory while the run measures and written out as JSON when it ends.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (the union of the children's intervals, clipped to the
// parent). Spans whose layer is "bench" or "probe" are the benchmark's own
// glue; their self time is the residual that is not attributed to a layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoParent = 0xffffffffU;

struct Span {
  std::string name;
  std::uint32_t parent = kNoParent;
  std::uint64_t item = 0;  ///< trial, frame or call id the span serves
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// The layer a span name belongs to: the text before the first '.'.
std::string_view span_layer(std::string_view name);

/// Single-threaded recorder. A disabled recorder records nothing, so the
/// same code path serves the untraced and the traced phase.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint32_t begin(std::string_view name, std::uint64_t item);
  void end(std::uint32_t id);
  /// Adds a finished span under the innermost open span.
  void add(std::string_view name, std::uint64_t item, std::int64_t start_ns,
           std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  bool balanced() const { return open_.empty(); }

  /// Writes {"spans":[{"id":..,"name":..,"parent":..,"item":..,"start_ns":..,
  /// "end_ns":..},...]} to `path`. Returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string_view name, std::uint64_t item = 0)
      : recorder_(recorder),
        id_(recorder.enabled() ? recorder.begin(name, item) : kNoParent) {}
  ~ScopedSpan() {
    if (id_ != kNoParent) recorder_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  std::uint32_t id_;
};

/// Self time of every span, index-aligned with `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals over a span set.
struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::vector<std::int64_t> durations_ns;
};
std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans);

/// Reconciliation of one traced phase: the root span's duration against
/// the layer self times plus the bench/probe residual.
struct Reconciliation {
  std::int64_t total_ns = 0;       ///< duration of the root spans
  std::int64_t attributed_ns = 0;  ///< self time of layer spans
  std::int64_t residual_ns = 0;    ///< self time of bench/probe spans
  std::map<std::string, std::int64_t> layer_self_ns;
  /// |attributed + residual - total| / total.
  double gap_ratio() const;
  bool ok(double tolerance) const { return gap_ratio() <= tolerance; }
};
Reconciliation reconcile(const std::vector<Span>& spans);

}  // namespace perfbench
