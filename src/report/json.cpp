#include "report/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace reorder::report {

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::runtime_error{std::string{"Json: value is not "} + wanted};
}

void dump_string(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(double d, std::string& out) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 9.0e15) {
    out += std::to_string(static_cast<std::int64_t>(d));
    return;
  }
  if (!std::isfinite(d)) {  // JSON has no inf/nan; emit null
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

// Appends `v`'s compact rendering to `out`: one buffer for the whole
// tree, so a nested value is written in place, never copied up a level.
void dump_value(const Json& v, std::string& out) {
  switch (v.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += v.as_bool() ? "true" : "false"; break;
    case Json::Type::kNumber: dump_number(v.as_double(), out); break;
    case Json::Type::kString: dump_string(v.as_string(), out); break;
    case Json::Type::kArray: {
      out += '[';
      bool first = true;
      for (const auto& item : v.items()) {
        if (!first) out += ',';
        first = false;
        dump_value(item, out);
      }
      out += ']';
      break;
    }
    case Json::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, member] : v.members()) {
        if (!first) out += ',';
        first = false;
        dump_string(k, out);
        out += ':';
        dump_value(member, out);
      }
      out += '}';
      break;
    }
  }
}

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
          if (pos + 4 > text.size()) return std::nullopt;
          unsigned int code = 0;
          const auto* begin = text.data() + pos;
          const auto [ptr, ec] = std::from_chars(begin, begin + 4, code, 16);
          if (ec != std::errc{} || ptr != begin + 4) return std::nullopt;
          pos += 4;
          // Basic-multilingual-plane only; encode as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
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
  constexpr std::uint64_t kExactDoubleMax = 1ull << 53;
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
  dump_value(*this, out);
  return out;
}

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  auto v = p.value();
  if (!v) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;  // trailing junk
  return v;
}

}  // namespace reorder::report
