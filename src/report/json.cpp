#include "report/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace reorder::report {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error{std::string{"Json: value is not "} + wanted};
}

/// The largest count a double holds exactly: Json::u64's number range.
constexpr std::uint64_t kExactDoubleMax = 1ull << 53;

// ------------------------------------------------------------- parsing

struct Parser {
  std::string_view text;
  std::size_t pos{0};
  int depth{0};  ///< arrays and objects open around pos

  void skip_ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }
  bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool match(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  std::optional<Json> value() {
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    switch (text[pos]) {
      case 'n': return match("null") ? std::optional<Json>{Json{}} : std::nullopt;
      case 't': return match("true") ? std::optional<Json>{Json{true}} : std::nullopt;
      case 'f': return match("false") ? std::optional<Json>{Json{false}} : std::nullopt;
      case '"': return string_value();
      case '[':
      case '{': {
        if (depth == Json::kMaxDepth) return std::nullopt;
        ++depth;
        auto nested = text[pos] == '[' ? array_value() : object_value();
        --depth;
        return nested;
      }
      default: return number_value();
    }
  }

  std::optional<Json> number_value() {
    // JSON numbers start with '-' or a digit; from_chars alone would also
    // accept "inf"/"nan" tokens, which JSON has no grammar for.
    if (text[pos] != '-' && !std::isdigit(static_cast<unsigned char>(text[pos]))) {
      return std::nullopt;
    }
    double d = 0;
    const auto* begin = text.data() + pos;
    const auto* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, d);
    if (ec != std::errc{} || ptr == begin || !std::isfinite(d)) return std::nullopt;
    pos += static_cast<std::size_t>(ptr - begin);
    return Json{d};
  }

  /// The four hex digits of a \u escape.
  bool hex4(std::uint32_t& code) {
    if (pos + 4 > text.size()) return false;
    const auto* begin = text.data() + pos;
    const auto [ptr, ec] = std::from_chars(begin, begin + 4, code, 16);
    if (ec != std::errc{} || ptr != begin + 4) return false;
    pos += 4;
    return true;
  }

  static void append_utf8(std::uint32_t code, std::string& out) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::optional<std::string> string_body() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return std::nullopt;
      const char esc = text[pos++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          std::uint32_t code = 0;
          if (!hex4(code)) return std::nullopt;
          if (code >= 0xDC00 && code <= 0xDFFF) return std::nullopt;  // a low half alone
          if (code >= 0xD800 && code <= 0xDBFF) {
            // A high surrogate names a code point past the basic plane only
            // with the escaped low surrogate that must follow it.
            std::uint32_t low = 0;
            if (!match("\\u") || !hex4(low) || low < 0xDC00 || low > 0xDFFF) {
              return std::nullopt;
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(code, out);
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> string_value() {
    auto body = string_body();
    if (!body) return std::nullopt;
    return Json{std::move(*body)};
  }

  std::optional<Json> array_value() {
    if (!eat('[')) return std::nullopt;
    Json out = Json::array();
    skip_ws();
    if (eat(']')) return out;
    while (true) {
      auto v = value();
      if (!v) return std::nullopt;
      out.push(std::move(*v));
      skip_ws();
      if (eat(']')) return out;
      if (!eat(',')) return std::nullopt;
    }
  }

  std::optional<Json> object_value() {
    if (!eat('{')) return std::nullopt;
    Json out = Json::object();
    skip_ws();
    if (eat('}')) return out;
    while (true) {
      skip_ws();
      auto key = string_body();
      if (!key) return std::nullopt;
      skip_ws();
      if (!eat(':')) return std::nullopt;
      auto v = value();
      if (!v) return std::nullopt;
      out.set(std::move(*key), std::move(*v));
      skip_ws();
      if (eat('}')) return out;
      if (!eat(',')) return std::nullopt;
    }
  }
};

}  // namespace

bool Json::as_bool() const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  type_error("a bool");
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  type_error("a number");
}

std::int64_t Json::as_int() const {
  const double d = as_double();  // the bounds are exact doubles; NaN fails both
  if (!(d >= -0x1p63 && d < 0x1p63) || d != std::floor(d)) type_error("an int64-range integer");
  return static_cast<std::int64_t>(d);
}

int Json::as_i32() const {
  const std::int64_t v = as_int();
  if (v < std::numeric_limits<int>::min() || v > std::numeric_limits<int>::max()) {
    type_error("an int-range integer");
  }
  return static_cast<int>(v);
}

Json Json::u64(std::uint64_t v) {
  if (v <= kExactDoubleMax) return Json{v};
  return Json{std::to_string(v)};
}

std::uint64_t Json::as_u64() const {
  if (const auto* d = std::get_if<double>(&value_)) {
    if (!(*d >= 0 && *d < 0x1p64) || *d != std::floor(*d)) type_error("a u64-range integer");
    return static_cast<std::uint64_t>(*d);
  }
  if (const auto* s = std::get_if<std::string>(&value_)) {
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(s->data(), s->data() + s->size(), v);
    if (ec != std::errc{} || ptr != s->data() + s->size()) {
      type_error("a decimal u64 string");
    }
    return v;
  }
  type_error("a u64 (number or decimal string)");
}

const std::string& Json::as_string() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  type_error("a string");
}

Json& Json::set(std::string key, Json value) {
  if (is_null()) value_ = Object{};
  auto* obj = std::get_if<Object>(&value_);
  if (obj == nullptr) type_error("an object");
  for (auto& [k, v] : obj->members) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj->members.emplace_back(std::move(key), std::move(value));
  return *this;
}

bool Json::contains(std::string_view key) const { return find(key) != nullptr; }

const Json* Json::find(std::string_view key) const {
  const auto* obj = std::get_if<Object>(&value_);
  if (obj == nullptr) return nullptr;
  for (const auto& [k, v] : obj->members) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const auto* v = find(key);
  if (v == nullptr) throw std::out_of_range{"Json: no member '" + std::string{key} + "'"};
  return *v;
}

Json& Json::push(Json value) {
  if (is_null()) value_ = Array{};
  auto* arr = std::get_if<Array>(&value_);
  if (arr == nullptr) type_error("an array");
  arr->items.push_back(std::move(value));
  return *this;
}

const Json& Json::at(std::size_t i) const { return items().at(i); }

std::size_t Json::size() const {
  if (const auto* arr = std::get_if<Array>(&value_)) return arr->items.size();
  if (const auto* obj = std::get_if<Object>(&value_)) return obj->members.size();
  return 0;
}

const std::vector<Json>& Json::items() const {
  if (const auto* arr = std::get_if<Array>(&value_)) return arr->items;
  type_error("an array");
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (const auto* obj = std::get_if<Object>(&value_)) return obj->members;
  type_error("an object");
}

std::string Json::dump() const {
  std::string out;
  JsonWriter{out}.value(*this);
  return out;
}

Json Json::parse_rendered(std::string_view text) {
  std::optional<Json> parsed = parse(text);
  if (!parsed) throw std::logic_error{"Json: a rendering does not parse"};
  return std::move(*parsed);
}

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  auto v = p.value();
  if (!v) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;  // trailing junk
  return v;
}

// ---------------------------------------------------------- JsonWriter

JsonWriter& JsonWriter::null() {
  separate();
  out_ += "null";
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::boolean(bool b) {
  separate();
  out_ += b ? "true" : "false";
  comma_ = true;
  return *this;
}

void JsonWriter::quoted_escaped(std::string_view s, char tail) {
  separate();
  out_ += '"';
  // Copies each run of bytes that need no escape in one append.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (!needs_escape(s[i])) continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out_.append(escape, sizeof escape);
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_ += '"';
  if (tail != '\0') out_ += tail;
}

JsonWriter& JsonWriter::number(double d) {
  if (!std::isfinite(d)) return null();
  if (d == std::floor(d) && std::fabs(d) < static_cast<double>(kIntegerLimit)) {
    return integer(static_cast<std::int64_t>(d));
  }
  separate();
  // Exactly printf's "%.17g" (the standard defines to_chars with a
  // precision by it), without the format-string parse.
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17).ptr;
  out_.append(buf, end);
  comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::u64(std::uint64_t v) {
  if (v <= kExactDoubleMax) return number(v);
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof digits, v).ptr;
  return string(std::string_view{digits, static_cast<std::size_t>(end - digits)});
}

JsonWriter& JsonWriter::value(const Json& v) {
  switch (v.type()) {
    case Json::Type::kNull: return null();
    case Json::Type::kBool: return boolean(v.as_bool());
    case Json::Type::kNumber: return number(v.as_double());
    case Json::Type::kString: return string(v.as_string());
    case Json::Type::kArray:
      begin_array();
      for (const Json& item : v.items()) value(item);
      return end_array();
    case Json::Type::kObject:
      begin_object();
      for (const auto& [k, member] : v.members()) key(k).value(member);
      return end_object();
  }
  return *this;
}

}  // namespace reorder::report
