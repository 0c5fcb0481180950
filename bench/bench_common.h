// Shared CLI layer for the reproduction bench binaries.
//
// Every bench accepts the same flags:
//   --seed=N      RNG seed (default 20190707, the ICDCS'19 date)
//   --trials=N    override the bench's per-point trial counts
//   --threads=N   worker threads (default: CTC_THREADS env, then hardware)
//   --json        append a one-line machine-readable report to stdout
//   --telemetry   enable the sim::telemetry layer: print a per-stage
//                 counter/timing summary and embed the deterministic subset
//                 (no wall-clock timers) in the --json report
//   --telemetry-out=FILE
//                 also write the full telemetry JSON (including timing
//                 histograms) to FILE; implies --telemetry
//
// Flags also accept the two-argument form (`--seed 7`). The human-readable
// output always prints; with --json the LAST line of stdout is a single
// JSON object, so `./bench --json | tail -n1 > BENCH_<name>.json` captures
// the trajectory file. The JSON deliberately excludes thread count and
// timing: it records simulation results, which are bit-identical for a
// fixed seed at any thread count — the CI determinism gate diffs the JSON
// of a threads=1 and a threads=4 run.
//
// All output in this layer goes through C stdio (std::printf / PRIu64);
// benches should use sim::Table::print() rather than iostream so rows and
// logs share one buffering path.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_flags.h"
#include "json/json.h"
#include "sim/engine.h"
#include "sim/table.h"
#include "sim/telemetry.h"
#include "sim/thread_pool.h"

namespace ctc::bench {

inline constexpr std::uint64_t kDefaultSeed = 20190707;  // ICDCS'19

/// Options shared by every bench binary.
struct Options {
  std::uint64_t seed = kDefaultSeed;
  std::size_t threads = 0;            ///< 0 = auto (CTC_THREADS, hardware)
  std::optional<std::size_t> trials;  ///< overrides per-bench trial counts
  bool json = false;                  ///< emit the machine-readable report
  bool telemetry = false;             ///< enable the sim::telemetry layer
  bool dry_run = false;               ///< print resolved config JSON, exit 0
  std::string telemetry_out;          ///< full telemetry JSON file (or empty)

  bool telemetry_enabled() const {
    return telemetry || !telemetry_out.empty();
  }

  /// The trial count a bench should use where it defaults to `fallback`.
  std::size_t trials_or(std::size_t fallback) const {
    return trials.value_or(fallback);
  }
};

namespace detail {

/// --dry-run: print the fully resolved run configuration (seed, trials,
/// thread count after CTC_THREADS/hardware resolution, telemetry settings)
/// as one JSON line and exit 0 without constructing an engine or running
/// any trials. Lets scripts and CI validate flag plumbing cheaply.
[[noreturn]] inline void print_dry_run_and_exit(const Options& options,
                                                const char* bench_name) {
  Json config = Json::object();
  config.set("bench", bench_name);
  config.set("dry_run", true);
  config.set("seed", options.seed);
  config.set("trials", options.trials ? Json(*options.trials) : Json());
  config.set("threads", sim::ThreadPool::resolve_threads(options.threads));
  config.set("json", options.json);
  config.set("telemetry", options.telemetry_enabled());
  config.set("telemetry_out", options.telemetry_out.empty()
                                  ? Json()
                                  : Json(options.telemetry_out));
  std::printf("%s\n", config.dump().c_str());
  std::exit(0);
}

}  // namespace detail

inline Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--json") == 0) {
      options.json = true;
    } else if (std::strcmp(argv[i], "--dry-run") == 0) {
      options.dry_run = true;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      options.telemetry = true;
    } else if (cli::flag_value(argc, argv, i, "--telemetry-out", &value)) {
      options.telemetry_out = value;
    } else if (cli::flag_value(argc, argv, i, "--seed", &value)) {
      options.seed = cli::parse_u64(value, "--seed");
    } else if (cli::flag_value(argc, argv, i, "--threads", &value)) {
      options.threads =
          static_cast<std::size_t>(cli::parse_u64(value, "--threads"));
    } else if (cli::flag_value(argc, argv, i, "--trials", &value)) {
      options.trials =
          static_cast<std::size_t>(cli::parse_u64(value, "--trials"));
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: %s [--seed=N] [--trials=N] [--threads=N] [--json]\n"
          "          [--dry-run] [--telemetry] [--telemetry-out=FILE]\n"
          "  --seed=N     RNG seed (default %" PRIu64 ")\n"
          "  --trials=N   override the bench's per-point trial counts\n"
          "  --threads=N  worker threads (default: CTC_THREADS, then "
          "hardware)\n"
          "  --json       print a one-line JSON report as the last line\n"
          "  --dry-run    print the resolved run configuration as one JSON\n"
          "               line and exit without running any trials\n"
          "  --telemetry  per-stage counters/timings; embeds the\n"
          "               deterministic subset in the --json report\n"
          "  --telemetry-out=FILE  write full telemetry JSON (with timing\n"
          "               histograms) to FILE; implies --telemetry\n",
          argv[0], kDefaultSeed);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", argv[i]);
      std::exit(2);
    }
  }
  sim::telemetry::set_enabled(options.telemetry_enabled());
  return options;
}

/// Prints the bench banner for benches with no Monte Carlo loop (no engine).
inline void print_banner(const Options& options, const char* bench_name) {
  if (options.dry_run) detail::print_dry_run_and_exit(options, bench_name);
  std::printf("=== %s ===\n", bench_name);
  std::printf("seed: %" PRIu64 "\n\n", options.seed);
}

/// Prints the bench banner and builds the trial engine the bench runs on.
inline sim::TrialEngine make_engine(const Options& options,
                                    const char* bench_name) {
  if (options.dry_run) detail::print_dry_run_and_exit(options, bench_name);
  sim::TrialEngine engine({options.seed, options.threads});
  std::printf("=== %s ===\n", bench_name);
  std::printf("seed: %" PRIu64 "   threads: %zu\n\n", options.seed,
              engine.threads());
  return engine;
}

inline void section(const char* title) { std::printf("\n--- %s ---\n", title); }

/// The --json report: one insertion-ordered JSON object, rendered by the
/// project's JSON writer, so two runs that compute identical results emit
/// byte-identical lines — the property the CI determinism diff checks.
class JsonReport {
 public:
  JsonReport(const Options& options, const char* bench_name)
      : enabled_(options.json), bench_name_(bench_name) {
    set("bench", bench_name);
    set("seed", options.seed);
  }

  const std::string& bench_name() const { return bench_name_; }

  void set(const std::string& key, Json value) {
    fields_.set(key, std::move(value));
  }
  void set(const std::string& key, const std::vector<double>& values) {
    set(key, Json(Json::Array(values.begin(), values.end())));
  }

  /// Prints the report as one line iff --json was given. Call last: the
  /// BENCH_*.json capture is `... --json | tail -n1`.
  void print() const {
    if (enabled_) std::printf("%s\n", fields_.dump().c_str());
  }

 private:
  bool enabled_;
  std::string bench_name_;
  Json fields_ = Json::object();
};

namespace detail {

/// Pretty-prints a nanosecond quantity with a unit that keeps 3-4 digits.
inline std::string format_ns(double ns) {
  char buffer[48];
  if (ns < 1e3) {
    std::snprintf(buffer, sizeof buffer, "%.0f ns", ns);
  } else if (ns < 1e6) {
    std::snprintf(buffer, sizeof buffer, "%.2f us", ns / 1e3);
  } else if (ns < 1e9) {
    std::snprintf(buffer, sizeof buffer, "%.2f ms", ns / 1e6);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.2f s", ns / 1e9);
  }
  return buffer;
}

inline std::string format_metric_number(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

}  // namespace detail

/// Prints the per-stage telemetry summary as a table: one row per metric,
/// timers rendered in human time units, histograms with their mean/max.
inline void print_telemetry_summary(
    const std::vector<sim::telemetry::MetricValue>& metrics) {
  section("telemetry (per-stage counters & timings)");
  if (metrics.empty()) {
    std::printf("no telemetry recorded\n");
    return;
  }
  sim::Table table({"stage", "metric", "kind", "count", "total", "mean",
                    "min", "max"});
  for (const auto& metric : metrics) {
    const auto& cell = metric.cell;
    const double mean =
        cell.count > 0 ? cell.sum / static_cast<double>(cell.count) : 0.0;
    const bool is_timer = metric.kind == sim::telemetry::Kind::timer;
    auto value = [&](double v) {
      return is_timer ? detail::format_ns(v) : detail::format_metric_number(v);
    };
    table.add_row({metric.stage, metric.name,
                   sim::telemetry::kind_name(metric.kind),
                   std::to_string(cell.count), value(cell.sum), value(mean),
                   value(cell.min), value(cell.max)});
  }
  table.print();
}

/// Telemetry emission + report printing, shared by every bench `main`. Call
/// in place of `report.print()` as the last output statement:
///   * with --telemetry, prints the human-readable per-stage summary and
///     embeds the deterministic (timer-free) telemetry subset in the --json
///     report, so the CI determinism diff covers telemetry too;
///   * with --telemetry-out=FILE, also writes the full schema (including
///     wall-clock timing histograms) to FILE;
///   * always ends by printing the one-line JSON report (when --json).
inline void finish(JsonReport& report, const Options& options) {
  if (options.telemetry_enabled()) {
    const auto metrics = sim::telemetry::collect();
    print_telemetry_summary(metrics);
    report.set("telemetry",
               sim::telemetry::to_json(metrics, /*include_timers=*/false));
    if (!options.telemetry_out.empty()) {
      const std::string full =
          sim::telemetry::to_json(metrics, /*include_timers=*/true,
                                  {{"bench", report.bench_name()},
                                   {"seed", options.seed}})
              .dump();
      if (std::FILE* file = std::fopen(options.telemetry_out.c_str(), "w")) {
        std::fputs(full.c_str(), file);
        std::fputc('\n', file);
        std::fclose(file);
        std::printf("\ntelemetry written to %s\n", options.telemetry_out.c_str());
      } else {
        std::fprintf(stderr, "cannot write telemetry to %s\n",
                     options.telemetry_out.c_str());
      }
    }
  }
  report.print();
}

}  // namespace ctc::bench
