// Campaign experiment runners: the bridge between a declarative spec and
// the simulation layer.
//
// An Experiment knows how to turn a spec's grid cells into *work units* —
// the atom of scheduling, checkpointing and sharding — and how to execute
// one unit on a sim::TrialEngine. The planner assigns every unit a stable
// run index in the exact order a sequential bench binary would consume
// engine runs; each unit then draws from the RNG stream family
// `Rng::for_stream(seed, run_index << 32 | trial)`. Because a unit's
// randomness is a pure function of (seed, run_index, trial), ANY partition
// of units across shards, processes or resume boundaries reproduces the
// sequential run bit-for-bit.
//
// Experiments may need a barrier between unit groups (fig12 calibrates a
// threshold on training units before testing); units are therefore grouped
// into stages, and reduce_stage() folds a finished stage's results into a
// state object that later stages' units can read.
#pragma once

#include <string_view>
#include <vector>

#include "json/json.h"
#include "campaign/spec.h"
#include "sim/engine.h"

namespace ctc::campaign {

/// One schedulable, checkpointable unit of work.
struct WorkUnit {
  std::size_t index = 0;      ///< global plan order (stable shard key)
  std::size_t stage = 0;
  std::string id;             ///< stable id, e.g. "u0003.attack.snr_db=9"
  std::uint64_t run_index = 0;  ///< engine run family (== index by design)
  std::string role;           ///< experiment-defined ("attack", "train_emulated", ...)
  CampaignSpec::Cell cell;
  std::size_t trials = 0;
};

class Experiment {
 public:
  virtual ~Experiment() = default;

  virtual std::string_view name() const = 0;

  /// Validates experiment-specific spec content (axis names etc.).
  /// Throws SpecError on violations.
  virtual void check_spec(const CampaignSpec& spec) const = 0;

  virtual std::size_t num_stages(const CampaignSpec& spec) const = 0;

  /// Plans one stage's units. Must be a pure function of the spec (never of
  /// results), so the full unit list — and therefore shard membership — is
  /// known before anything runs.
  virtual std::vector<WorkUnit> plan_stage(const CampaignSpec& spec,
                                           std::size_t stage) const = 0;

  /// The state object handed to stage-0 units (threshold overrides etc.).
  virtual Json initial_state(const CampaignSpec& spec) const;

  /// Executes one unit. The engine is already seek_run() to the unit's run
  /// index. Returns the unit's result document (checkpointed verbatim; all
  /// doubles survive the Json dump/parse round trip bit-exactly).
  virtual Json run_unit(const CampaignSpec& spec, const WorkUnit& unit,
                        const Json& state, sim::TrialEngine& engine) const = 0;

  /// Folds a completed stage's unit results (plan order) into the state
  /// passed to later stages. Deterministic: inputs come from the manifest
  /// on resume and must reduce to the identical state.
  virtual Json reduce_stage(const CampaignSpec& spec, std::size_t stage,
                            const std::vector<const Json*>& unit_results,
                            Json state) const;

  /// The merged campaign report. For ported benches this line is
  /// byte-identical to the bench binary's --json output.
  virtual Json final_report(
      const CampaignSpec& spec,
      const std::vector<std::vector<const Json*>>& results_by_stage,
      const Json& state) const = 0;
};

/// Looks up a registered experiment; nullptr when unknown.
const Experiment* find_experiment(std::string_view name);

/// Names of all registered experiments (for error messages / --help).
std::vector<std::string_view> experiment_names();

}  // namespace ctc::campaign
