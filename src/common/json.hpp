/// \file json.hpp
/// Minimal self-contained JSON value, parser and serializer.
///
/// Used for the benches' machine-readable result records, which
/// bench_compare reads back to diff a run against a committed baseline.
/// Supports the full JSON grammar except surrogate-pair escapes
/// (sufficient for result data, which is ASCII).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace tbi {

/// Error thrown on malformed JSON input or wrong-type access.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A dynamically typed JSON value.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double d) : type_(Type::Number), num_(d) {}
  Json(int i) : type_(Type::Number), num_(i) {}
  Json(std::int64_t i) : type_(Type::Number), num_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : type_(Type::Number), num_(static_cast<double>(u)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(Array a) : type_(Type::Array), arr_(std::move(a)) {}
  Json(Object o) : type_(Type::Object), obj_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object member access; throws JsonError when absent or not an object.
  const Json& at(const std::string& key) const;
  /// True iff this is an object containing \p key.
  bool contains(const std::string& key) const;

  /// Mutable object/array builders.
  Json& operator[](const std::string& key);
  void push_back(Json v);

  /// Deepest nesting of arrays and objects parse() accepts.
  static constexpr int kMaxDepth = 256;

  /// Parse a complete JSON document (throws JsonError on any trailing junk
  /// and on nesting deeper than kMaxDepth).
  static Json parse(const std::string& text);

  /// Serialize; \p indent > 0 pretty-prints with that many spaces.
  std::string dump(int indent = 0) const;

  /// Pretty-print \p doc (plus trailing newline) to \p path — the shared
  /// sink of every bench's --json option. Crash-safe: the document is
  /// written to a temp file in the same directory, fsynced, and renamed
  /// into place, so a killed bench never leaves a truncated/corrupt
  /// committed file. Returns false after printing an error to stderr when
  /// any step fails (ENOSPC-style late failures included).
  static bool write_file(const std::string& path, const Json& doc, int indent = 2);

  /// Load and parse a JSON document from \p path. Throws JsonError when
  /// the file cannot be read or does not parse.
  static Json read_file(const std::string& path);

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace tbi
