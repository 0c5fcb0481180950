// Perf — the multi-sensor mesh under load: sensor-field trial throughput
// as the field grows (4 / 16 / 64 sensors).
//
//   $ ./perf_mesh --json | tail -n1 > BENCH_perf_mesh.json
//
// Like perf_engine/perf_hotpath this JSON intentionally contains wall
// times — do not use it in the CI determinism diff. The trial/sensor
// counters are deterministic.
// Reported fields:
//   * sensors                   — field sizes swept;
//   * batched_sensors_per_sec   — per size, sensor-observations/s through
//     channel::propagate_batch_multi (one SoA sweep per trial);
//   * sensors_per_sec           — min rate over the sweep (the trajectory
//     floor).
#include <chrono>
#include <vector>

#include "bench_common.h"
#include "mesh/sensor_field.h"
#include "zigbee/app.h"

using namespace ctc;

int main(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);
  sim::TrialEngine engine =
      bench::make_engine(options, "Perf: sensor-field mesh throughput");
  bench::JsonReport report(options, "perf_mesh");

  const auto frames = zigbee::make_text_workload(8);
  const std::size_t trials = options.trials_or(24);
  report.set("trials_per_point", static_cast<std::uint64_t>(trials));

  const std::vector<std::size_t> sweep = {4, 16, 64};
  std::vector<double> sizes, rates;
  double floor_rate = 0.0;

  sim::Table table({"sensors", "throughput"});
  for (const std::size_t sensors : sweep) {
    mesh::MeshConfig config;
    config.sensors = sensors;
    const mesh::SensorField field(config);
    const double observations = static_cast<double>(trials * sensors);

    const auto start = std::chrono::steady_clock::now();
    run_mesh_trials(field, frames, trials, engine);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();

    const double rate = observations / seconds;
    sizes.push_back(static_cast<double>(sensors));
    rates.push_back(rate);
    if (floor_rate == 0.0 || rate < floor_rate) floor_rate = rate;
    table.add_row({sim::Table::num(static_cast<double>(sensors), 0),
                   sim::Table::num(rate, 0) + " obs/s"});
  }
  table.print();

  report.set("sensors", sizes);
  report.set("batched_sensors_per_sec", rates);
  report.set("sensors_per_sec", floor_rate);
  bench::finish(report, options);
  return 0;
}
