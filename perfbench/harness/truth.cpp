#include "truth.h"

#include <charconv>

namespace perfbench {

namespace {

/// `needle` is the quoted key with its colon, e.g. "\"is_attack\":".
bool find_field(std::string_view line, std::string_view needle,
                std::string_view& value) {
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  value = line.substr(at + needle.size());
  return true;
}

}  // namespace

bool parse_verdicts(std::string_view jsonl, std::vector<ObservedVerdict>& out) {
  while (!jsonl.empty()) {
    const std::size_t eol = jsonl.find('\n');
    const std::string_view line = jsonl.substr(0, eol);
    jsonl = eol == std::string_view::npos ? std::string_view{} : jsonl.substr(eol + 1);
    if (line.empty()) continue;
    std::string_view position;
    std::string_view attack;
    if (!find_field(line, "\"stream_pos\":", position) ||
        !find_field(line, "\"is_attack\":", attack)) {
      return false;
    }
    ObservedVerdict verdict;
    const auto parsed = std::from_chars(position.data(),
                                        position.data() + position.size(),
                                        verdict.position);
    if (parsed.ec != std::errc{}) return false;
    if (attack.starts_with("true")) {
      verdict.is_attack = true;
    } else if (!attack.starts_with("false")) {
      return false;
    }
    out.push_back(verdict);
  }
  return true;
}

MatchResult match_verdicts(std::span<const ExpectedFrame> frames,
                           std::span<const ObservedVerdict> verdicts) {
  MatchResult result;
  result.expected = frames.size();
  std::vector<std::size_t> hits(frames.size(), 0);
  std::size_t f = 0;
  for (const ObservedVerdict& v : verdicts) {
    // Frames before this verdict cannot match it or any later verdict
    // (both sequences are in stream order).
    while (f < frames.size() && frames[f].position < v.position) ++f;
    if (f == frames.size() || v.position != frames[f].position) {
      ++result.unexpected;
      continue;
    }
    if (++hits[f] > 1) {
      ++result.duplicate;
      continue;
    }
    ++result.matched;
    if (v.is_attack != frames[f].is_attack) ++result.wrong;
  }
  for (std::size_t h : hits) {
    if (h == 0) ++result.missing;
  }
  return result;
}

TrialTally tally_trials(std::size_t attempted, std::size_t decided,
                        std::size_t decided_attack, bool truth_is_attack) {
  TrialTally tally;
  tally.attempted = attempted;
  tally.no_verdict = attempted - decided;
  tally.wrong = truth_is_attack ? decided - decided_attack : decided_attack;
  return tally;
}

}  // namespace perfbench
