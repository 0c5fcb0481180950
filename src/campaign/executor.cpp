#include "campaign/executor.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>
#include <vector>

#include "campaign/manifest.h"
#include "sim/telemetry.h"

namespace ctc::campaign {

namespace {

std::string csv_field(const std::string& value) {
  if (value.find_first_of(",\"\n") == std::string::npos) return value;
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

/// One row per work unit: identity, axis values, and every scalar numeric
/// field of the unit's result (array fields stay in the manifest).
std::string render_cells_csv(const CampaignPlan& plan, const CampaignSpec& spec,
                             const std::map<std::size_t, Json>& results) {
  std::vector<std::string> axis_names;
  for (const GridAxis& axis : spec.grid) axis_names.push_back(axis.name);
  std::vector<std::string> metric_names;
  for (const auto& stage : plan.stages) {
    for (const WorkUnit& unit : stage) {
      const auto it = results.find(unit.index);
      if (it == results.end()) continue;
      for (const auto& [key, value] : it->second.as_object()) {
        if (!value.is_number()) continue;
        bool seen = false;
        for (const std::string& existing : metric_names) {
          if (existing == key) { seen = true; break; }
        }
        if (!seen) metric_names.push_back(key);
      }
    }
  }

  std::string csv = "index,stage,id,run_index,role,trials";
  for (const std::string& axis : axis_names) csv += "," + csv_field(axis);
  for (const std::string& metric : metric_names) csv += "," + csv_field(metric);
  csv += "\n";
  for (const auto& stage : plan.stages) {
    for (const WorkUnit& unit : stage) {
      csv += std::to_string(unit.index) + "," + std::to_string(unit.stage) +
             "," + csv_field(unit.id) + "," + std::to_string(unit.run_index) +
             "," + csv_field(unit.role) + "," + std::to_string(unit.trials);
      for (const std::string& axis : axis_names) {
        const Json* value = unit.cell.find(axis);
        csv += ",";
        if (value != nullptr) csv += value->dump();
      }
      const auto it = results.find(unit.index);
      for (const std::string& metric : metric_names) {
        csv += ",";
        if (it == results.end()) continue;
        if (const Json* value = it->second.find(metric); value && value->is_number()) {
          csv += value->dump();
        }
      }
      csv += "\n";
    }
  }
  return csv;
}

}  // namespace

CampaignOutcome run_campaign(const CampaignSpec& spec,
                             const ExecutorOptions& options) {
  if (options.out_dir.empty()) {
    throw CampaignError("campaign: output directory must not be empty");
  }
  if (options.shards == 0) {
    throw CampaignError("campaign: --shards must be >= 1");
  }
  if (options.shard && *options.shard >= options.shards) {
    throw CampaignError("campaign: --shard must be < --shards");
  }

  const CampaignPlan plan = plan_campaign(spec);
  const std::string fingerprint = spec_fingerprint(spec);
  std::filesystem::create_directories(options.out_dir);
  const std::string manifest_path = options.out_dir + "/manifest.json";

  Manifest manifest;
  if (auto existing = load_manifest(manifest_path)) {
    if (existing->fingerprint != fingerprint ||
        existing->campaign != spec.name ||
        existing->units_total != plan.units_total) {
      throw CampaignError(
          "campaign: " + manifest_path +
          " belongs to a different spec (fingerprint mismatch); use a fresh "
          "--out directory or delete the stale one");
    }
    manifest = std::move(*existing);
  } else {
    manifest.campaign = spec.name;
    manifest.fingerprint = fingerprint;
    manifest.units_total = plan.units_total;
  }

  std::map<std::size_t, Json> results;
  for (const CompletedUnit& unit : manifest.completed) {
    results.emplace(unit.index, unit.result);
  }

  CampaignOutcome outcome;
  outcome.units_total = plan.units_total;
  outcome.units_done = results.size();

  sim::telemetry::set_enabled(options.telemetry);
  sim::TrialEngine engine({spec.seed, options.threads});
  if (!options.quiet) {
    std::printf("campaign %s: %zu units (%zu done), seed %" PRIu64
                ", threads %zu\n",
                spec.name.c_str(), plan.units_total, results.size(), spec.seed,
                engine.threads());
  }

  Json state = plan.experiment->initial_state(spec);
  bool truncated = false;   // hit --max-units
  bool stage_gap = false;   // a stage is missing units (other shards)
  for (std::size_t stage = 0; stage < plan.stages.size() && !stage_gap; ++stage) {
    for (const WorkUnit& unit : plan.stages[stage]) {
      if (results.count(unit.index) != 0) continue;
      if (options.shard && unit.index % options.shards != *options.shard) {
        continue;
      }
      if (truncated ||
          (options.max_units != 0 && outcome.units_run >= options.max_units)) {
        truncated = true;
        continue;
      }
      engine.seek_run(unit.run_index);
      Json result = plan.experiment->run_unit(spec, unit, state, engine);
      manifest.completed.push_back(
          CompletedUnit{unit.id, unit.index, std::move(result)});
      // Load-merge-save under the manifest lock: concurrent shard processes
      // sharing --out never lose each other's completed units, and the
      // merged view we get back includes their progress.
      manifest = checkpoint_manifest(manifest, manifest_path);
      for (const CompletedUnit& done : manifest.completed) {
        results.emplace(done.index, done.result);
      }
      ++outcome.units_run;
      if (!options.quiet) {
        std::printf("  [%zu/%zu] %s done\n", results.size(), plan.units_total,
                    unit.id.c_str());
      }
    }
    // A stage reduction (e.g. threshold calibration) needs every unit of
    // the stage; stop here when other shards still own some of them. A
    // concurrently running shard may have checkpointed units since our last
    // merge, so absorb the on-disk manifest before deciding.
    bool stage_done = true;
    for (const WorkUnit& unit : plan.stages[stage]) {
      if (results.count(unit.index) == 0) {
        stage_done = false;
        break;
      }
    }
    if (!stage_done) {
      if (auto disk = load_manifest(manifest_path)) {
        for (const CompletedUnit& done : disk->completed) {
          results.emplace(done.index, done.result);
        }
      }
    }
    std::vector<const Json*> stage_results;
    for (const WorkUnit& unit : plan.stages[stage]) {
      const auto it = results.find(unit.index);
      if (it == results.end()) {
        stage_gap = true;
        break;
      }
      stage_results.push_back(&it->second);
    }
    if (!stage_gap) {
      state = plan.experiment->reduce_stage(spec, stage, stage_results,
                                            std::move(state));
    }
  }

  outcome.units_done = results.size();
  if (results.size() < plan.units_total) {
    if (!options.quiet) {
      std::printf("campaign %s: %zu/%zu units complete; rerun to resume\n",
                  spec.name.c_str(), results.size(), plan.units_total);
    }
    return outcome;
  }

  // Merge + artifact store.
  std::vector<std::vector<const Json*>> results_by_stage;
  for (const auto& stage : plan.stages) {
    std::vector<const Json*> stage_results;
    for (const WorkUnit& unit : stage) {
      stage_results.push_back(&results.at(unit.index));
    }
    results_by_stage.push_back(std::move(stage_results));
  }
  const Json report = plan.experiment->final_report(spec, results_by_stage, state);
  outcome.report_json = report.dump();
  outcome.complete = true;
  write_file_atomic(options.out_dir + "/report.json", outcome.report_json);
  write_file_atomic(options.out_dir + "/cells.csv",
                    render_cells_csv(plan, spec, results));
  if (options.telemetry) {
    write_file_atomic(
        options.out_dir + "/telemetry.json",
        sim::telemetry::to_json(sim::telemetry::collect(),
                                /*include_timers=*/true,
                                {{"campaign", spec.name}, {"seed", spec.seed}})
            .dump());
  }
  return outcome;
}

}  // namespace ctc::campaign
