// JSON for the report layer, in two parts with one job each:
//
//   * JsonWriter appends compact JSON straight into a string. It is the
//     one place this code decides JSON bytes: every record a survey, its
//     checkpoint and the metrics layer write goes through it, the hot ones
//     (sample, measurement, metrics, shard_done) with no tree in between.
//   * Json is the model for parsing: parse() accepts standard JSON into a
//     tree whose objects keep insertion order. Its dump() is a walk over
//     JsonWriter, so a tree and a direct rendering of the same fields give
//     the same bytes. No external dependency.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace reorder::report {

class Json;

/// Compact single-line JSON appended to a caller-owned string. The byte
/// rules, which every renderer in this code shares:
///   * a finite number that is integral and below 9e15 in magnitude
///     prints as an integer (-0 as 0); any other finite number as
///     printf's "%.17g", which reads back as the same double; a
///     non-finite one as null, since JSON has no inf or nan;
///   * u64() carries a 64-bit count losslessly: a number up to 2^53, a
///     decimal string above it, where a double would round it;
///   * strings escape the quote, backslash, newline, carriage return and
///     tab by name and every other byte below 0x20 as \u00XX; every other
///     byte, 0x7f and UTF-8 included, is copied as it is.
/// The writer places the commas: open and close containers, give each
/// object member its key(), and write values in order.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_{out} {}

  // The calls every record makes many times per line are inline: each
  // ends in at most one append to the string.
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  /// An object member's key; the next value written is its value.
  JsonWriter& key(std::string_view k) {
    quoted(k, ':');
    comma_ = false;
    return *this;
  }

  JsonWriter& null();
  JsonWriter& boolean(bool b);
  JsonWriter& string(std::string_view s) {
    quoted(s, '\0');
    comma_ = true;
    return *this;
  }
  JsonWriter& number(double d);
  /// An integer, by the same rule as the double it converts to.
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  JsonWriter& number(T v) {
    if constexpr (std::is_signed_v<T>) {
      if (v > -kIntegerLimit && v < kIntegerLimit) return integer(v);
    } else {
      if (v < static_cast<std::uint64_t>(kIntegerLimit)) return integer(v);
    }
    return number(static_cast<double>(v));
  }
  /// Json::u64's lossless carrier.
  JsonWriter& u64(std::uint64_t v);
  /// A whole tree (what Json::dump() writes).
  JsonWriter& value(const Json& v);

 private:
  /// Below this magnitude an integer prints as one; at and above it, as
  /// the double it converts to.
  static constexpr std::int64_t kIntegerLimit = 9'000'000'000'000'000;

  /// A comma when a value or key follows another in its container.
  void separate() {
    if (comma_) out_ += ',';
  }
  JsonWriter& open(char bracket) {
    separate();
    out_ += bracket;
    comma_ = false;
    return *this;
  }
  JsonWriter& close(char bracket) {
    out_ += bracket;
    comma_ = true;
    return *this;
  }
  /// An integer below kIntegerLimit in magnitude.
  template <typename T>
  JsonWriter& integer(T v) {
    char buf[24];
    char* end = buf;
    if (comma_) *end++ = ',';
    end = std::to_chars(end, buf + sizeof buf, v).ptr;
    out_.append(buf, end);
    comma_ = true;
    return *this;
  }
  /// A comma when one is due, then `s` quoted and escaped, then `tail`
  /// unless it is '\0'.
  void quoted(std::string_view s, char tail) {
    for (const char c : s) {
      if (needs_escape(c)) return quoted_escaped(s, tail);
    }
    const std::size_t at = out_.size();
    out_.resize(at + s.size() + 2 + (comma_ ? 1 : 0) + (tail != '\0' ? 1 : 0));
    char* p = out_.data() + at;
    if (comma_) *p++ = ',';
    *p++ = '"';
    if (!s.empty()) std::memcpy(p, s.data(), s.size());  // an empty view's data may be null
    p += s.size();
    *p++ = '"';
    if (tail != '\0') *p = tail;
  }
  void quoted_escaped(std::string_view s, char tail);
  static bool needs_escape(char c) {
    return static_cast<unsigned char>(c) < 0x20 || c == '"' || c == '\\';
  }

  std::string& out_;
  bool comma_{false};
};

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

  /// Compact single-line rendering (stable member order), through
  /// JsonWriter.
  std::string dump() const;

  /// The tree of the one value `write(JsonWriter&)` renders: how a type
  /// whose one renderer is a JsonWriter still offers a tree, by parsing
  /// its bytes. Throws std::logic_error when they do not parse.
  template <typename Write>
  static Json rendered(Write&& write) {
    std::string text;
    JsonWriter w{text};
    write(w);
    return parse_rendered(text);
  }

  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level, so a bound keeps one hostile line from overflowing
  /// the stack; the deepest record this code writes nests 8 levels.
  static constexpr int kMaxDepth = 128;

  /// Parses one JSON document; empty on malformed input, trailing junk or
  /// nesting deeper than kMaxDepth. A \u escape decodes to UTF-8, a
  /// surrogate pair to its one code point; a lone or reversed surrogate
  /// is malformed.
  static std::optional<Json> parse(std::string_view text);

 private:
  static Json parse_rendered(std::string_view text);

  struct Array {
    std::vector<Json> items;
  };
  struct Object {
    std::vector<std::pair<std::string, Json>> members;  // insertion order
  };
  std::variant<std::monostate, bool, double, std::string, Array, Object> value_;
};

}  // namespace reorder::report
