// The one JSON value type and writer of the project.
//
// Every JSON byte the programs emit goes through Json::dump_to: bench
// --json reports and --dry-run lines, telemetry documents, sentry verdict
// JSONL and counter snapshots, campaign specs, manifests and reports. The
// writer is the project's stable-rendering rule (docs/ARCHITECTURE.md,
// principle 5), so two runs that compute identical values emit identical
// bytes:
//   * objects keep insertion order (key order is part of every report
//     contract);
//   * integers and doubles are distinct value kinds, printed as %PRId64 and
//     %.17g respectively, so a double survives a dump/parse/dump cycle
//     byte-for-byte;
//   * a non-finite double is refused (JsonError) rather than printed as
//     "nan"/"inf", which is not JSON;
//   * strings escape '"', '\' and every control character.
// The parser is a small recursive descent over the JSON grammar with
// precise error positions; there is no third-party dependency, and this
// layer depends on nothing else in the project.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace ctc {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  using Array = std::vector<Json>;
  /// Insertion-ordered key/value pairs (no sorting, duplicates rejected by
  /// the parser).
  using Object = std::vector<std::pair<std::string, Json>>;

  enum class Type { null, boolean, integer, number, string, array, object };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool value) : value_(value) {}
  Json(std::int64_t value) : value_(value) {}
  Json(int value) : value_(static_cast<std::int64_t>(value)) {}
  Json(std::uint64_t value);
  Json(double value) : value_(value) {}
  Json(std::string value) : value_(std::move(value)) {}
  Json(const char* value) : value_(std::string(value)) {}
  Json(Array value) : value_(std::move(value)) {}
  Json(Object value) : value_(std::move(value)) {}

  static Json array() { return Json(Array{}); }
  static Json object() { return Json(Object{}); }

  /// Parses `text` as a single JSON document (trailing non-space rejected).
  static Json parse(std::string_view text);

  Type type() const;
  bool is_null() const { return type() == Type::null; }
  bool is_bool() const { return type() == Type::boolean; }
  bool is_integer() const { return type() == Type::integer; }
  /// Either an integer or a floating-point literal.
  bool is_number() const {
    return type() == Type::integer || type() == Type::number;
  }
  bool is_string() const { return type() == Type::string; }
  bool is_array() const { return type() == Type::array; }
  bool is_object() const { return type() == Type::object; }

  bool as_bool() const;
  std::int64_t as_int() const;
  std::uint64_t as_uint() const;
  double as_number() const;  ///< integer or double, widened to double
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // -- Object helpers ------------------------------------------------------
  /// Pointer to the value under `key`, or nullptr when absent.
  const Json* find(std::string_view key) const;
  /// The value under `key`; throws JsonError when absent.
  const Json& at(std::string_view key) const;
  /// Appends (or replaces, preserving position) `key`.
  void set(std::string key, Json value);

  // -- Array helpers -------------------------------------------------------
  void push_back(Json value);
  /// Array/object element count; throws for scalars.
  std::size_t size() const;

  /// Appends the compact serialization to `out`: no whitespace, insertion
  /// order, integers as %PRId64, doubles as %.17g, strings escaping '"',
  /// '\' and control characters. Throws JsonError on a non-finite double
  /// and then leaves `out` exactly as it was.
  void dump_to(std::string& out) const;
  /// dump_to() on a fresh string.
  std::string dump() const;

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;

  void write(std::string& out) const;
};

}  // namespace ctc
