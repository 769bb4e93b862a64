// A minimal JSON value — just enough for the report layer's machine-
// readable emitters (JSON Lines) and their round-trip tests. No external
// dependency: objects preserve insertion order (stable emitter output),
// numbers are doubles with an integer fast path, dump() is compact
// single-line (one value per JSONL line), parse() accepts standard JSON.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace reorder::report {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(std::nullptr_t) {}
  Json(bool b) : value_{b} {}
  Json(double d) : value_{d} {}
  Json(int i) : value_{static_cast<double>(i)} {}
  Json(std::int64_t i) : value_{static_cast<double>(i)} {}
  Json(std::uint64_t u) : value_{static_cast<double>(u)} {}
  Json(const char* s) : value_{std::string{s}} {}
  Json(std::string s) : value_{std::move(s)} {}
  Json(std::string_view s) : value_{std::string{s}} {}

  /// Lossless 64-bit unsigned carrier. Values representable exactly as a
  /// double (<= 2^53) become plain numbers; larger ones become decimal
  /// strings, since the number representation here is a double and would
  /// silently round them. Read back with as_u64(), which accepts both.
  static Json u64(std::uint64_t v);
  std::uint64_t as_u64() const;

  static Json array() {
    Json j;
    j.value_ = Array{};
    return j;
  }
  static Json object() {
    Json j;
    j.value_ = Object{};
    return j;
  }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on a type mismatch, and
  /// as_int()/as_i32()/as_u64() also on a number that is not an integer
  /// in their range (non-finite, fractional or too large).
  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  int as_i32() const;
  const std::string& as_string() const;

  // ----- object -----
  /// Sets a key (object only; a null value promotes to an object).
  Json& set(std::string key, Json value);
  bool contains(std::string_view key) const;
  /// Member access; throws std::out_of_range when absent.
  const Json& at(std::string_view key) const;
  /// Member access returning nullptr when absent (or not an object).
  const Json* find(std::string_view key) const;

  // ----- array -----
  /// Appends (array only; a null value promotes to an array).
  Json& push(Json value);
  const Json& at(std::size_t i) const;
  std::size_t size() const;

  /// Iteration over array elements / object members.
  const std::vector<Json>& items() const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Compact single-line rendering (stable member order).
  std::string dump() const;

  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level, so a bound keeps one hostile line from overflowing
  /// the stack; the deepest record this code writes nests 8 levels.
  static constexpr int kMaxDepth = 128;

  /// Parses one JSON document; empty on malformed input, trailing junk or
  /// nesting deeper than kMaxDepth.
  static std::optional<Json> parse(std::string_view text);

 private:
  struct Array {
    std::vector<Json> items;
  };
  struct Object {
    std::vector<std::pair<std::string, Json>> members;  // insertion order
  };
  std::variant<std::monostate, bool, double, std::string, Array, Object> value_;
};

}  // namespace reorder::report
