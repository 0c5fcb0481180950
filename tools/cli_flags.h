// Command-line flag parsing shared by the bench binaries and the tools.
//
// Every flag takes either `--name=value` or `--name value`. A value that
// does not parse exits the program with status 2 and the line
// "invalid value for --name: <text>" on stderr, so a malformed flag can
// never reach the program as a silently wrapped or non-finite number:
//   * integers are plain decimal digits in [0, 2^63 - 1] — no sign, no
//     leading space, no overflow — which is also the range the JSON writer
//     prints exactly;
//   * reals are finite decimal numbers (no nan, no inf).
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace ctc::cli {

[[noreturn]] inline void invalid_value(const char* flag, const char* text) {
  std::fprintf(stderr, "invalid value for %s: %s\n", flag, text);
  std::exit(2);
}

/// True when argv[i] is flag `name`; points `*out` at its value, consuming
/// the next argument for the two-argument form.
inline bool flag_value(int argc, char** argv, int& i, const char* name,
                       const char** out) {
  const std::size_t len = std::strlen(name);
  const char* arg = argv[i];
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0') {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s expects a value\n", name);
      std::exit(2);
    }
    *out = argv[++i];
    return true;
  }
  return false;
}

/// Parses a decimal integer in [0, 2^63 - 1].
inline std::uint64_t parse_u64(const char* text, const char* flag) {
  if (*text < '0' || *text > '9') invalid_value(flag, text);
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE ||
      value > static_cast<unsigned long long>(
                  std::numeric_limits<std::int64_t>::max())) {
    invalid_value(flag, text);
  }
  return static_cast<std::uint64_t>(value);
}

/// Parses a finite real number.
inline double parse_double(const char* text, const char* flag) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) {
    invalid_value(flag, text);
  }
  return value;
}

}  // namespace ctc::cli
