#include "sim/telemetry.h"

#include <algorithm>
#include <bit>
#include <mutex>

namespace ctc::sim::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::counter: return "counter";
    case Kind::gauge: return "gauge";
    case Kind::histo: return "histo";
    case Kind::timer: return "timer";
  }
  return "unknown";
}

std::size_t bucket_index(std::uint64_t value) {
  return std::min<std::size_t>(std::bit_width(value), kHistoBuckets - 1);
}

std::uint64_t bucket_lower_bound(std::size_t bucket) {
  return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
}

void Cell::merge(const Cell& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (std::size_t b = 0; b < kHistoBuckets; ++b) buckets[b] += other.buckets[b];
}

namespace {

// ---- registry ------------------------------------------------------------
// Names live for the whole process; ids are dense indices into g_metrics.
// Lookup is linear over a small table (a few dozen metrics) but happens only
// once per instrumentation site thanks to the function-local static caching
// in the macros.
struct MetricInfo {
  Kind kind;
  std::string stage;
  std::string name;
};

std::mutex& registry_mutex() {
  static std::mutex mutex;
  return mutex;
}

std::vector<MetricInfo>& metric_infos() {
  static std::vector<MetricInfo> infos;
  return infos;
}

// ---- thread-local frames -------------------------------------------------
struct Frame {
  std::vector<Cell> cells;            // indexed by MetricId
  std::vector<MetricId> touched;      // ids with count > 0, insertion order

  Cell& cell(MetricId id) {
    if (id >= cells.size()) cells.resize(id + 1);
    Cell& c = cells[id];
    if (c.count == 0) touched.push_back(id);
    return c;
  }

  bool empty() const { return touched.empty(); }

  void clear() {
    for (MetricId id : touched) cells[id] = Cell{};
    touched.clear();
  }
};

thread_local Frame tls_frame;
thread_local std::vector<Frame> tls_saved_frames;  // TrialScope nesting stack
thread_local int tls_suppress_depth = 0;           // SuppressScope nesting

// ---- global accumulator --------------------------------------------------
// commit() and collect() both fold into here; the engine's reduction loop
// commits serially in trial-index order, which is what makes the double
// sums deterministic.
std::mutex& accumulator_mutex() {
  static std::mutex mutex;
  return mutex;
}

Frame& accumulator() {
  static Frame frame;
  return frame;
}

void merge_frame_into_accumulator_locked(const Frame& frame) {
  for (MetricId id : frame.touched) {
    accumulator().cell(id).merge(frame.cells[id]);
  }
}

}  // namespace

MetricId register_metric(Kind kind, const char* stage, const char* name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  auto& infos = metric_infos();
  for (std::size_t i = 0; i < infos.size(); ++i) {
    if (infos[i].stage == stage && infos[i].name == name) {
      return static_cast<MetricId>(i);
    }
  }
  infos.push_back({kind, stage, name});
  return static_cast<MetricId>(infos.size() - 1);
}

void add_count(MetricId id, std::uint64_t delta) {
  if (tls_suppress_depth != 0) return;
  Cell& cell = tls_frame.cell(id);
  const auto value = static_cast<double>(delta);
  if (cell.count == 0) {
    cell.min = value;
    cell.max = value;
  } else {
    cell.min = std::min(cell.min, value);
    cell.max = std::max(cell.max, value);
  }
  ++cell.count;
  cell.sum += value;
}

void observe(MetricId id, double value) {
  if (tls_suppress_depth != 0) return;
  Cell& cell = tls_frame.cell(id);
  if (cell.count == 0) {
    cell.min = value;
    cell.max = value;
  } else {
    cell.min = std::min(cell.min, value);
    cell.max = std::max(cell.max, value);
  }
  ++cell.count;
  cell.sum += value;
}

void record_histo(MetricId id, std::uint64_t value) {
  if (tls_suppress_depth != 0) return;
  Cell& cell = tls_frame.cell(id);
  const auto as_double = static_cast<double>(value);
  if (cell.count == 0) {
    cell.min = as_double;
    cell.max = as_double;
  } else {
    cell.min = std::min(cell.min, as_double);
    cell.max = std::max(cell.max, as_double);
  }
  ++cell.count;
  cell.sum += as_double;
  ++cell.buckets[bucket_index(value)];
}

void record_timer(MetricId id, std::uint64_t nanoseconds) {
  record_histo(id, nanoseconds);
}

TrialScope::TrialScope() {
  if (!enabled()) return;
  active_ = true;
  tls_saved_frames.push_back(std::move(tls_frame));
  tls_frame = Frame{};
}

TrialSnapshot TrialScope::capture() {
  TrialSnapshot snapshot;
  if (!active_) return snapshot;
  snapshot.cells.reserve(tls_frame.touched.size());
  for (MetricId id : tls_frame.touched) {
    snapshot.cells.emplace_back(id, tls_frame.cells[id]);
  }
  tls_frame.clear();
  return snapshot;
}

TrialScope::~TrialScope() {
  if (!active_) return;
  // Anything not captured is folded into the outer frame rather than lost
  // (e.g. a trial that threw past its capture point).
  Frame trial_frame = std::move(tls_frame);
  tls_frame = std::move(tls_saved_frames.back());
  tls_saved_frames.pop_back();
  for (MetricId id : trial_frame.touched) {
    tls_frame.cell(id).merge(trial_frame.cells[id]);
  }
}

bool in_trial_scope() { return !tls_saved_frames.empty(); }

SuppressScope::SuppressScope() {
  if (!enabled()) return;
  active_ = true;
  ++tls_suppress_depth;
}

SuppressScope::~SuppressScope() {
  if (active_) --tls_suppress_depth;
}

void commit(TrialSnapshot&& snapshot) {
  if (snapshot.empty()) return;
  std::lock_guard<std::mutex> lock(accumulator_mutex());
  for (auto& [id, cell] : snapshot.cells) {
    accumulator().cell(id).merge(cell);
  }
  snapshot.cells.clear();
}

std::vector<MetricValue> collect() {
  std::lock_guard<std::mutex> lock(accumulator_mutex());
  merge_frame_into_accumulator_locked(tls_frame);
  tls_frame.clear();

  std::vector<MetricValue> values;
  {
    std::lock_guard<std::mutex> registry_lock(registry_mutex());
    const auto& infos = metric_infos();
    for (MetricId id : accumulator().touched) {
      if (accumulator().cells[id].empty()) continue;
      MetricValue value;
      value.stage = infos[id].stage;
      value.name = infos[id].name;
      value.kind = infos[id].kind;
      value.cell = accumulator().cells[id];
      values.push_back(std::move(value));
    }
  }
  std::sort(values.begin(), values.end(),
            [](const MetricValue& a, const MetricValue& b) {
              if (a.stage != b.stage) return a.stage < b.stage;
              return a.name < b.name;
            });
  return values;
}

void reset() {
  std::lock_guard<std::mutex> lock(accumulator_mutex());
  accumulator().clear();
  tls_frame.clear();
}

Json to_json(const std::vector<MetricValue>& metrics, bool include_timers,
             Json::Object header) {
  Json document = Json::object();
  document.set("telemetry_schema", kSchemaVersion);
  for (auto& [key, value] : header) {
    document.set(std::move(key), std::move(value));
  }
  Json entries = Json::array();
  for (const MetricValue& metric : metrics) {
    if (!include_timers && metric.kind == Kind::timer) continue;
    Json entry = Json::object();
    entry.set("stage", metric.stage);
    entry.set("name", metric.name);
    entry.set("kind", kind_name(metric.kind));
    entry.set("count", metric.cell.count);
    entry.set("sum", metric.cell.sum);
    if (metric.kind != Kind::counter) {
      entry.set("min", metric.cell.min);
      entry.set("max", metric.cell.max);
    }
    if (metric.kind == Kind::histo || metric.kind == Kind::timer) {
      Json buckets = Json::array();
      for (std::size_t b = 0; b < kHistoBuckets; ++b) {
        if (metric.cell.buckets[b] == 0) continue;
        buckets.push_back(
            Json::Array{bucket_lower_bound(b), metric.cell.buckets[b]});
      }
      entry.set("buckets", std::move(buckets));
    }
    entries.push_back(std::move(entry));
  }
  document.set("metrics", std::move(entries));
  return document;
}

}  // namespace ctc::sim::telemetry
