/// \file cli.hpp
/// Tiny declarative command-line parser for examples and bench binaries.
///
/// Supports `--flag`, `--key value` and `--key=value` forms, typed lookup
/// with defaults, and an auto-generated usage text.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace tbi {

class CliParser {
 public:
  CliParser(std::string program, std::string summary)
      : program_(std::move(program)), summary_(std::move(summary)) {}

  /// Declare an option (for usage text); \p value_hint empty means boolean flag.
  void add_option(const std::string& name, const std::string& value_hint,
                  const std::string& help);

  /// Parse argv. Returns false (and fills error()) on an unknown option,
  /// a missing value or an argument that is not an option.
  bool parse(int argc, const char* const* argv);

  bool has(const std::string& name) const { return values_.count(name) != 0; }
  std::string get(const std::string& name, const std::string& fallback) const;
  /// Numeric lookups. A value that is empty, has trailing characters, is
  /// out of range or (get_double) is not finite prints `error: --NAME
  /// expects a number, got 'VALUE'` and exits 1, so a typo never runs
  /// with a silently truncated number.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// get_double without the exit: prints the same error line and returns
  /// nullopt, so a program can exit with its own usage-error code.
  std::optional<double> read_double(const std::string& name, double fallback) const;
  /// Integer option \p name as a count of unsigned type T, \p fallback
  /// when absent. A value below \p min or above what T (and get_int)
  /// holds prints `error: --NAME must be an integer in [MIN, MAX]` and
  /// exits 1: an unchecked cast would turn --frames -1 into 4,294,967,295
  /// frames.
  template <typename T>
  T read_count(const std::string& name, T fallback, T min) const;

  const std::string& error() const { return error_; }

  /// Human-readable usage text built from add_option calls.
  std::string usage() const;

 private:
  struct Option {
    std::string name;
    std::string value_hint;
    std::string help;
  };

  [[noreturn]] static void count_out_of_range(const std::string& name,
                                              std::uint64_t min, std::uint64_t max);

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  std::map<std::string, std::string> values_;
  std::string error_;
};

template <typename T>
T CliParser::read_count(const std::string& name, T fallback, T min) const {
  static_assert(std::is_unsigned_v<T>);
  if (!has(name)) return fallback;
  const std::uint64_t max =
      std::min<std::uint64_t>(std::numeric_limits<T>::max(),
                              std::numeric_limits<std::int64_t>::max());
  const std::int64_t v = get_int(name, 0);
  if (std::cmp_less(v, min) || std::cmp_greater(v, max)) {
    count_out_of_range(name, min, max);
  }
  return static_cast<T>(v);
}

}  // namespace tbi
