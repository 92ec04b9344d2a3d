// Minimal JSON parser for code that must read back documents the repo
// itself emits (the point-result codec's payloads, bench/point_codec.h).
// The repo has no JSON dependency; this is the production sibling of
// tests/support/json.h with one extra guarantee the codec needs: numbers
// keep their raw spelling (`raw`) so callers can reparse them as int64 or
// double without going through a lossy double (model times are int64 and
// can exceed 2^53 in principle).
//
// Scope: well-formed documents produced by this codebase. \uXXXX escapes
// decode to UTF-8 (the codec emits \u00XX for control bytes in strings,
// and round-tripping them must be bit-exact).
#pragma once

#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace bsplogp::core {

struct JsonValue {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string raw;  // numbers only: the exact source spelling
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  [[nodiscard]] const JsonValue* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();  // no trailing garbage
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      pos_ += 1;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.type = JsonValue::Type::String;
      return string(out.str);
    }
    if (c == 't') {
      out.type = JsonValue::Type::Bool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.type = JsonValue::Type::Bool;
      return literal("false");
    }
    if (c == 'n') return literal("null");
    return number(out);
  }
  bool string(std::string& out) {
    if (s_[pos_] != '"') return false;
    pos_ += 1;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        pos_ += 1;
        if (pos_ >= s_.size()) return false;
        switch (s_[pos_]) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 >= s_.size()) return false;
            unsigned v = 0;
            for (std::size_t i = 1; i <= 4; ++i) {
              const char h = s_[pos_ + i];
              v <<= 4;
              if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            pos_ += 4;
            if (v < 0x80) {
              out += static_cast<char>(v);
            } else if (v < 0x800) {
              out += static_cast<char>(0xC0 | (v >> 6));
              out += static_cast<char>(0x80 | (v & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (v >> 12));
              out += static_cast<char>(0x80 | ((v >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (v & 0x3F));
            }
            break;
          }
          default: return false;
        }
        pos_ += 1;
      } else {
        out += s_[pos_];
        pos_ += 1;
      }
    }
    if (pos_ >= s_.size()) return false;
    pos_ += 1;  // closing quote
    return true;
  }
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) pos_ += 1;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '-' || s_[pos_] == '+'))
      pos_ += 1;
    if (pos_ == start) return false;
    out.type = JsonValue::Type::Number;
    out.raw = s_.substr(start, pos_ - start);
    // strtod, not std::stod: stod throws on subnormal underflow (ERANGE)
    // where strtod just returns the denormal/0 — both legitimate payloads.
    out.number = std::strtod(out.raw.c_str(), nullptr);
    return true;
  }
  bool array(JsonValue& out) {
    out.type = JsonValue::Type::Array;
    pos_ += 1;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      pos_ += 1;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        pos_ += 1;
        continue;
      }
      if (s_[pos_] == ']') {
        pos_ += 1;
        return true;
      }
      return false;
    }
  }
  bool object(JsonValue& out) {
    out.type = JsonValue::Type::Object;
    pos_ += 1;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      pos_ += 1;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || !string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      pos_ += 1;
      JsonValue v;
      if (!value(v)) return false;
      out.object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        pos_ += 1;
        continue;
      }
      if (s_[pos_] == '}') {
        pos_ += 1;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace bsplogp::core
