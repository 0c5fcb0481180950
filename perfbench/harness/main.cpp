// Benchmark harness: runs one workload for a fixed time and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
//
//   ctc_perfbench --workload trial-fresh|mesh-repeat|sentry-air --seed N
//                 --seconds S --trace 0|1 [--spans FILE]
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run reports the per-layer ones. Workloads run at min(hardware
// threads, 4) threads. Exits 1 when an output check fails, 2 on bad
// arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "ctc_perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: ctc_perfbench --workload trial-fresh|mesh-repeat|sentry-air"
               " --seed N --seconds S --trace 0|1 [--spans FILE]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  const unsigned hw = std::thread::hardware_concurrency();
  options.threads = std::min<std::size_t>(hw == 0 ? 1 : hw, 4);
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

void print_result(const Options& options, Outcome& outcome) {
  const auto& specs = options.trace ? per_layer_metrics() : end_to_end_metrics();
  for (const std::string& line : outcome.notes) std::printf("# %s\n", line.c_str());
  for (const std::string& line : outcome.failures) std::printf("# CHECK FAILED: %s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += outcome.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = outcome.metrics.find(spec.name);
    // A layer a workload never reaches reports 0 (see perfbench/README.md).
    double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char cell[256];
    std::snprintf(cell, sizeof cell, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", spec.name, value, spec.unit);
    std::printf("%-36s %24.9g %s\n", spec.name, value, spec.unit);
    json += cell;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Outcome outcome;
  try {
    if (options.workload == "trial-fresh") {
      outcome = run_trial_fresh(options);
    } else if (options.workload == "mesh-repeat") {
      outcome = run_mesh_repeat(options);
    } else if (options.workload == "sentry-air") {
      outcome = run_sentry_air(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ctc_perfbench: %s\n", error.what());
    return 1;
  }
  for (const auto& [name, value] : outcome.metrics) {
    outcome.check(std::isfinite(value), "non-finite metric " + name);
  }
  print_result(options, outcome);
  return outcome.correct ? 0 : 1;
}
