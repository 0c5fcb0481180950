// Declarative experiment campaign specs (versioned JSON schema).
//
// A campaign spec turns a parameter sweep — previously a hand-written bench
// `main()` — into data: which experiment to run, the link/defense settings,
// and a sweep grid of axis values (explicit lists or start/stop/step
// ranges). The spec layer is strict by design: unknown keys, duplicate
// axes, empty axis lists and unsupported schema versions are all hard
// errors, so a typo'd spec fails fast instead of silently sweeping the
// wrong surface. docs/CAMPAIGNS.md documents the schema.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "json/json.h"

namespace ctc::campaign {

class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One sweep axis, already expanded to its value list (ranges are expanded
/// at parse time; to_json() canonicalizes them back to lists).
struct GridAxis {
  std::string name;
  std::vector<Json> values;  ///< numbers only (integer or double)
};

struct CampaignSpec {
  /// Bumped whenever the spec layout changes shape; parse rejects others.
  static constexpr std::int64_t kSchemaVersion = 1;

  std::string name;        ///< campaign id; also the report's "bench" field
  std::string experiment;  ///< registered runner ("attack_success", ...)
  std::uint64_t seed = 20190707;

  std::size_t workload_frames = 100;  ///< "00000".."000NN" text workload

  // Per-unit trial counts. The `attack_success` experiment uses `trials`
  // (emulated link) and `authentic_trials`; `threshold_sweep` uses
  // `train_trials` and `test_trials` per link per cell.
  std::size_t trials = 1000;
  std::size_t authentic_trials = 200;
  std::size_t train_trials = 50;
  std::size_t test_trials = 100;

  /// threshold_sweep: fixed decision threshold Q. Unset = calibrate from a
  /// training stage exactly like bench/fig12_threshold.
  std::optional<double> threshold;
  /// attack emulator: fixed QAM scale alpha. Unset = the emulator default.
  std::optional<double> alpha;

  /// Sensor-field settings for the mesh experiments (`fusion_detection`,
  /// `localization_error`). Optional "mesh" object in the spec; strict
  /// like everything else (unknown keys are hard errors). Grid axes
  /// (`sensors`, `snr_offset_db`, `shadow_sigma_db`) override the
  /// corresponding field per cell.
  struct MeshSettings {
    std::string geometry = "grid";  ///< "grid" or "ring"
    double extent_m = 8.0;          ///< grid span / ring radius (m)
    double attacker_x = 1.9;        ///< true emitter position (m)
    double attacker_y = 1.1;
    double shadow_sigma_db = 1.0;   ///< RSSI shadowing std dev
    double snr_offset_db = 0.0;     ///< link-budget shift on top of path loss
  };
  std::optional<MeshSettings> mesh;

  std::vector<GridAxis> grid;  ///< empty = a single unparameterized cell

  /// One grid cell: the cross product element in row-major order (first
  /// axis outermost).
  struct Cell {
    std::size_t index = 0;
    std::vector<std::pair<std::string, Json>> values;

    /// "snr_db=7,trials=3" (empty string for the axis-less cell).
    std::string label() const;
    const Json* find(std::string_view axis) const;
    double number_or(std::string_view axis, double fallback) const;
    std::uint64_t uint_or(std::string_view axis, std::uint64_t fallback) const;
  };

  /// Expands the grid into cells, row-major, first axis outermost.
  std::vector<Cell> cells() const;

  /// Parses and validates a spec document. Throws SpecError on schema
  /// mismatch, unknown keys, duplicate/empty axes, or malformed values.
  static CampaignSpec from_json(const Json& json);
  static CampaignSpec parse(std::string_view text);

  /// Canonical JSON form. from_json(to_json(s)) reproduces `s` and
  /// to_json is a fixed point under the round trip (ranges expand to
  /// lists, defaults are materialized).
  Json to_json() const;
};

}  // namespace ctc::campaign
