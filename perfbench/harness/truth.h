// Ground-truth matching: which verdicts the program owed, and which it gave.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

/// One frame the input held: where it starts in the stream and its class.
struct ExpectedFrame {
  std::uint64_t position = 0;
  bool is_attack = false;
};

/// The fields of one sentry verdict line the checks read.
struct ObservedVerdict {
  std::uint64_t position = 0;
  bool is_attack = false;
};

/// Pulls stream_pos and is_attack out of verdict JSONL. Returns false
/// (and stops) at the first line missing either field.
bool parse_verdicts(std::string_view jsonl, std::vector<ObservedVerdict>& out);

struct MatchResult {
  std::size_t expected = 0;    ///< frames owed a verdict
  std::size_t matched = 0;     ///< frames with exactly one verdict in place
  std::size_t missing = 0;     ///< frames that got no verdict
  std::size_t wrong = 0;       ///< matched frames whose class is wrong
  std::size_t unexpected = 0;  ///< verdicts at no frame's position
  std::size_t duplicate = 0;   ///< second or later verdict for one frame

  /// Frames that got no verdict or a wrong one.
  std::size_t errors() const { return missing + wrong; }
  /// Verdicts that correspond to no owed frame break the output contract.
  bool structurally_ok() const { return unexpected == 0 && duplicate == 0; }
};

/// Matches verdicts to frames by exact stream position (both in stream
/// order).
MatchResult match_verdicts(std::span<const ExpectedFrame> frames,
                           std::span<const ObservedVerdict> verdicts);

/// Tally of one batch of trials that all share a known class.
struct TrialTally {
  std::size_t attempted = 0;
  std::size_t no_verdict = 0;  ///< trial produced no usable verdict
  std::size_t wrong = 0;       ///< verdict disagrees with the class
  std::size_t errors() const { return no_verdict + wrong; }
};

/// Scores per-trial attack decisions of `decided` trials out of `attempted`
/// against the class every one of them carries.
TrialTally tally_trials(std::size_t attempted, std::size_t decided,
                        std::size_t decided_attack, bool truth_is_attack);

}  // namespace perfbench
