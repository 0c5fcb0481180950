// ctc_campaign — run declarative experiment campaigns (see docs/CAMPAIGNS.md).
//
//   ctc_campaign validate <spec.json>
//   ctc_campaign plan     <spec.json> [--shards=N]
//   ctc_campaign run      <spec.json> [--out=DIR] [--threads=N]
//                         [--shards=N] [--shard=K] [--max-units=M]
//                         [--seed=N] [--telemetry] [--quiet]
//
// `run` resumes automatically from DIR/manifest.json. Exit codes: 0 on a
// complete campaign, 2 on usage/spec errors, 3 when units remain (a pinned
// shard, --max-units, or a mid-campaign kill — rerun to resume). When the
// campaign completes, the LAST stdout line is the merged report JSON, so
// `ctc_campaign run spec.json | tail -n1` captures the same line the ported
// bench binary prints with --json.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "campaign/executor.h"
#include "campaign/manifest.h"
#include "campaign/plan.h"
#include "campaign/spec.h"
#include "cli_flags.h"
#include "sim/table.h"

namespace {

using namespace ctc;

void print_usage(std::FILE* stream) {
  std::fputs(
      "usage: ctc_campaign <command> <spec.json> [flags]\n"
      "commands:\n"
      "  validate   parse + validate the spec, print a summary\n"
      "  plan       print the expanded work-unit table\n"
      "  run        execute (or resume) the campaign\n"
      "flags (run):\n"
      "  --out=DIR      artifact/manifest directory (default\n"
      "                 campaign_runs/<name>)\n"
      "  --threads=N    engine worker threads (default: CTC_THREADS, then\n"
      "                 hardware)\n"
      "  --shards=N     total shard count (partition modulus, default 1)\n"
      "  --shard=K      run only units with index %% N == K\n"
      "  --max-units=M  stop after M units this invocation (checkpointed;\n"
      "                 rerun to resume)\n"
      "  --seed=N       override the spec seed\n"
      "  --telemetry    collect sim::telemetry, write telemetry.json\n"
      "  --quiet        suppress per-unit progress lines\n"
      "flags (plan): --shards=N annotates shard membership\n",
      stream);
}

std::optional<std::string> read_file(const char* path) {
  std::FILE* file = std::fopen(path, "rb");
  if (file == nullptr) return std::nullopt;
  std::string content;
  char buffer[4096];
  std::size_t read;
  while ((read = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    content.append(buffer, read);
  }
  std::fclose(file);
  return content;
}

int cmd_validate(const campaign::CampaignSpec& spec) {
  const campaign::CampaignPlan plan = campaign::plan_campaign(spec);
  std::printf("ok: campaign '%s' (experiment %s, seed %" PRIu64 ")\n",
              spec.name.c_str(), spec.experiment.c_str(), spec.seed);
  std::printf("    %zu cells x roles = %zu units over %zu stage(s)\n",
              spec.cells().size(), plan.units_total, plan.stages.size());
  std::printf("    fingerprint %s\n", campaign::spec_fingerprint(spec).c_str());
  return 0;
}

int cmd_plan(const campaign::CampaignSpec& spec, std::size_t shards) {
  const campaign::CampaignPlan plan = campaign::plan_campaign(spec);
  sim::Table table({"index", "stage", "id", "run", "trials", "shard"});
  for (const auto& stage : plan.stages) {
    for (const campaign::WorkUnit& unit : stage) {
      table.add_row({std::to_string(unit.index), std::to_string(unit.stage),
                     unit.id, std::to_string(unit.run_index),
                     std::to_string(unit.trials),
                     std::to_string(unit.index % shards)});
    }
  }
  table.print();
  std::printf("%zu units, fingerprint %s\n", plan.units_total,
              campaign::spec_fingerprint(spec).c_str());
  return 0;
}

int cmd_run(const campaign::CampaignSpec& spec,
            const campaign::ExecutorOptions& options) {
  const campaign::CampaignOutcome outcome = campaign::run_campaign(spec, options);
  if (!outcome.complete) return 3;
  // The merged report is the LAST line, mirroring the bench --json contract.
  std::printf("%s\n", outcome.report_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    print_usage(argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                              std::strcmp(argv[1], "-h") == 0)
                    ? stdout
                    : stderr);
    return argc >= 2 ? 0 : 2;
  }
  const std::string command = argv[1];
  const char* spec_path = argv[2];

  campaign::ExecutorOptions options;
  std::optional<std::uint64_t> seed_override;
  std::size_t plan_shards = 1;
  for (int i = 3; i < argc; ++i) {
    const char* value = nullptr;
    if (cli::flag_value(argc, argv, i, "--out", &value)) {
      options.out_dir = value;
    } else if (cli::flag_value(argc, argv, i, "--threads", &value)) {
      options.threads =
          static_cast<std::size_t>(cli::parse_u64(value, "--threads"));
    } else if (cli::flag_value(argc, argv, i, "--shards", &value)) {
      options.shards =
          static_cast<std::size_t>(cli::parse_u64(value, "--shards"));
      plan_shards = options.shards;
    } else if (cli::flag_value(argc, argv, i, "--shard", &value)) {
      options.shard =
          static_cast<std::size_t>(cli::parse_u64(value, "--shard"));
    } else if (cli::flag_value(argc, argv, i, "--max-units", &value)) {
      options.max_units =
          static_cast<std::size_t>(cli::parse_u64(value, "--max-units"));
    } else if (cli::flag_value(argc, argv, i, "--seed", &value)) {
      seed_override = cli::parse_u64(value, "--seed");
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      options.telemetry = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      options.quiet = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      print_usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", argv[i]);
      return 2;
    }
  }
  if (plan_shards == 0) {
    std::fprintf(stderr, "--shards must be >= 1\n");
    return 2;
  }

  const auto text = read_file(spec_path);
  if (!text) {
    std::fprintf(stderr, "cannot read spec file %s\n", spec_path);
    return 2;
  }

  try {
    campaign::CampaignSpec spec = campaign::CampaignSpec::parse(*text);
    if (seed_override) spec.seed = *seed_override;
    if (options.out_dir.empty()) options.out_dir = "campaign_runs/" + spec.name;

    if (command == "validate") return cmd_validate(spec);
    if (command == "plan") return cmd_plan(spec, plan_shards);
    if (command == "run") return cmd_run(spec, options);
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    print_usage(stderr);
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ctc_campaign: %s\n", error.what());
    return 2;
  }
}
