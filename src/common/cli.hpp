/// \file cli.hpp
/// Tiny declarative command-line parser for examples and bench binaries.
///
/// Supports `--flag`, `--key value` and `--key=value` forms, typed lookup
/// with defaults, and an auto-generated usage text.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tbi {

class CliParser {
 public:
  CliParser(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  /// Declare an option (for usage text); \p value_hint empty means boolean flag.
  void add_option(const std::string& name, const std::string& value_hint,
                  const std::string& help);

  /// Parse argv. Returns false (and fills error()) on unknown options.
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const { return values_.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Numeric lookups. A value that is empty, has trailing characters or
  /// is out of range prints `error: --NAME expects a number, got 'VALUE'`
  /// and exits 1, so a typo never runs with a silently truncated number.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_flag(const std::string& name) const { return has(name); }

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& error() const { return error_; }

  /// Human-readable usage text built from add_option calls.
  std::string usage() const;

 private:
  struct Option {
    std::string name;
    std::string value_hint;
    std::string help;
  };

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::string error_;
};

}  // namespace tbi
