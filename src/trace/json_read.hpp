// Minimal strict JSON parser — the read side of the trace tooling
// (bgq-prof consumes bgq-trace-v1 files) and the validation parser the
// tests use against every exporter.  Parses into a tiny value tree; any
// syntax error throws, so "this byte stream is valid JSON" is an
// assertion by construction.  Not a general library: no \uXXXX decoding
// beyond pass-through, numbers land in a double (exact for the integers
// the exporters emit below 2^53 — trace ids are constructed to fit, and
// flat-trace timestamps are re-based to a run-relative origin).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace bgq::trace::json {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<ValuePtr> arr;
  std::map<std::string, ValuePtr> obj;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member or nullptr.
  const Value* get(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : it->second.get();
  }
  /// Object member that must exist (throws otherwise).
  const Value& at(const std::string& key) const {
    const Value* v = get(key);
    if (v == nullptr) throw std::runtime_error("missing key: " + key);
    return *v;
  }
  /// Number member as a uint64 (throws when absent, non-numeric, or not
  /// an integer in [0, 2^64) — converting such a double is undefined).
  std::uint64_t u64(const std::string& key) const {
    const Value& v = at(key);
    if (!v.is_number()) throw std::runtime_error("not a number: " + key);
    if (!(v.num >= 0 && v.num < 18446744073709551616.0) ||
        v.num != std::floor(v.num)) {
      throw std::runtime_error("not an unsigned integer: " + key);
    }
    return static_cast<std::uint64_t>(v.num);
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  ValuePtr parse() {
    ValuePtr v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing bytes after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  ValuePtr value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return word("true", [](Value& v) {
        v.type = Value::Type::kBool;
        v.b = true;
      });
      case 'f': return word("false", [](Value& v) {
        v.type = Value::Type::kBool;
        v.b = false;
      });
      case 'n':
        return word("null", [](Value& v) { v.type = Value::Type::kNull; });
      default: return number();
    }
  }

  template <typename F>
  ValuePtr word(const char* w, F fill) {
    for (const char* p = w; *p != '\0'; ++p) expect(*p);
    auto v = std::make_shared<Value>();
    fill(*v);
    return v;
  }

  std::string raw_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      char c = s_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control char");
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("dangling escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            for (int i = 0; i < 4; ++i) {
              char h = s_[pos_ + i];
              if (!((h >= '0' && h <= '9') || (h >= 'a' && h <= 'f') ||
                    (h >= 'A' && h <= 'F'))) {
                fail("bad \\u escape");
              }
            }
            out += "\\u";
            out.append(s_, pos_, 4);
            pos_ += 4;
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  ValuePtr string_value() {
    auto v = std::make_shared<Value>();
    v->type = Value::Type::kString;
    v->str = raw_string();
    return v;
  }

  ValuePtr number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    if (!consume('0')) {
      if (peek() < '1' || peek() > '9') fail("bad number");
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    if (consume('.')) {
      if (peek() < '0' || peek() > '9') fail("bad fraction");
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (peek() < '0' || peek() > '9') fail("bad exponent");
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    auto v = std::make_shared<Value>();
    v->type = Value::Type::kNumber;
    v->num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  ValuePtr array() {
    expect('[');
    auto v = std::make_shared<Value>();
    v->type = Value::Type::kArray;
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      v->arr.push_back(value());
      skip_ws();
      if (consume(']')) return v;
      expect(',');
    }
  }

  ValuePtr object() {
    expect('{');
    auto v = std::make_shared<Value>();
    v->type = Value::Type::kObject;
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      std::string key = raw_string();
      skip_ws();
      expect(':');
      v->obj[key] = value();
      skip_ws();
      if (consume('}')) return v;
      expect(',');
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

inline ValuePtr parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace bgq::trace::json
