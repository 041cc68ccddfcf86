#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>

#include "common/fsio.hpp"

namespace tbi {

bool Json::as_bool() const {
  if (type_ != Type::Bool) throw JsonError("json: not a bool");
  return bool_;
}

double Json::as_double() const {
  if (type_ != Type::Number) throw JsonError("json: not a number");
  return num_;
}

std::int64_t Json::as_int() const {
  if (type_ != Type::Number) throw JsonError("json: not a number");
  return static_cast<std::int64_t>(std::llround(num_));
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) throw JsonError("json: not a string");
  return str_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::Array) throw JsonError("json: not an array");
  return arr_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::Object) throw JsonError("json: not an object");
  return obj_;
}

const Json& Json::at(const std::string& key) const {
  const auto& o = as_object();
  auto it = o.find(key);
  if (it == o.end()) throw JsonError("json: missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  return type_ == Type::Object && obj_.count(key) != 0;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) throw JsonError("json: not an object");
  return obj_[key];
}

void Json::push_back(Json v) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) throw JsonError("json: not an array");
  arr_.push_back(std::move(v));
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw JsonError("json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  char get() {
    char c = peek();
    ++pos_;
    return c;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  void expect(char c) {
    if (get() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Each level recurses once, so an unbounded depth would let a small
        // document overflow the stack.
        if (++depth_ > Json::kMaxDepth) {
          fail("nested deeper than " + std::to_string(Json::kMaxDepth) + " levels");
        }
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        if (consume_literal("nan")) fail("nan is not valid JSON (serialize as null)");
        fail("bad literal");
      case 'N':
      case 'i':
      case 'I':
        fail("nan/inf is not valid JSON (serialize as null)");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object obj;
    skip_ws();
    if (peek() == '}') {
      get();
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      char c = get();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}'");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    Json::Array arr;
    skip_ws();
    if (peek() == ']') {
      get();
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      char c = get();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']'");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = get();
      if (c == '"') break;
      if (c == '\\') {
        char e = get();
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
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = get();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
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
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') {
      get();
      if (pos_ < s_.size() &&
          (s_[pos_] == 'i' || s_[pos_] == 'I' || s_[pos_] == 'n' || s_[pos_] == 'N')) {
        fail("nan/inf is not valid JSON (serialize as null)");
      }
    }
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                                s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    char* end = nullptr;
    const std::string tok = s_.substr(start, pos_ - start);
    double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("bad number '" + tok + "'");
    // strtod saturates overflowing literals (e.g. "1e999") to infinity —
    // not a value JSON can round-trip, so reject instead of smuggling it in.
    if (!std::isfinite(d)) fail("number out of range '" + tok + "'");
    return Json(d);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays and objects open at pos_
};

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
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

void dump_number(std::string& out, double d) {
  // JSON has no representation for NaN or infinity; "%.17g" would emit
  // bare nan/inf tokens that no conforming parser (including ours)
  // accepts. Serialize them as null so the document stays loadable.
  if (!std::isfinite(d)) {
    out += "null";
    return;
  }
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(d));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  }
}

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const std::string nl = indent > 0 ? "\n" : "";
  const std::string pad = indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                                   static_cast<std::size_t>(depth + 1), ' ')
                                     : "";
  const std::string padEnd = indent > 0 ? std::string(static_cast<std::size_t>(indent) *
                                                      static_cast<std::size_t>(depth), ' ')
                                        : "";
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: dump_number(out, num_); break;
    case Type::String: dump_string(out, str_); break;
    case Type::Array: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) out += ',';
        first = false;
        out += nl + pad;
        v.dump_impl(out, indent, depth + 1);
      }
      out += nl + padEnd + ']';
      break;
    }
    case Type::Object: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        out += nl + pad;
        dump_string(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_impl(out, indent, depth + 1);
      }
      out += nl + padEnd + '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

bool Json::write_file(const std::string& path, const Json& doc, int indent) {
  // Temp-file + rename: a bench killed mid-write (OOM, preemption, ^C)
  // must never leave a truncated/corrupt committed document — either the
  // previous file survives intact or the complete new one replaces it.
  return write_file_atomic(path, doc.dump(indent) + '\n');
}

Json Json::read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JsonError("json: cannot read '" + path + "'");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) throw JsonError("json: failed reading '" + path + "'");
  return parse(text);
}

}  // namespace tbi
