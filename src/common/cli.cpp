#include "common/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace tbi {

void CliParser::add_option(const std::string& name, const std::string& value_hint,
                           const std::string& help) {
  options_.push_back({name, value_hint, help});
}

bool CliParser::parse(int argc, const char* const* argv) {
  auto is_declared = [&](const std::string& n) {
    for (const auto& o : options_) {
      if (o.name == n) return true;
    }
    return n == "help";
  };
  auto takes_value = [&](const std::string& n) {
    for (const auto& o : options_) {
      if (o.name == n) return !o.value_hint.empty();
    }
    return false;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    std::string key = arg;
    std::string val;
    bool has_val = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      val = arg.substr(eq + 1);
      has_val = true;
    }
    if (!is_declared(key)) {
      error_ = "unknown option --" + key;
      return false;
    }
    if (!has_val && takes_value(key)) {
      if (i + 1 >= argc) {
        error_ = "option --" + key + " expects a value";
        return false;
      }
      val = argv[++i];
    }
    values_[key] = val;
  }
  return true;
}

std::string CliParser::get(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// Exit 1 with an error: line unless strtoll/strtod, which left \p end
/// and errno behind, read all of a non-empty \p value without overflow.
void require_number(const std::string& name, const std::string& value,
                    const char* end) {
  if (value.empty() || *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "error: --%s expects a number, got '%s'\n", name.c_str(),
                 value.c_str());
    std::exit(1);
  }
}

}  // namespace

std::int64_t CliParser::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(it->second.c_str(), &end, 0);
  require_number(name, it->second, end);
  return v;
}

double CliParser::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  require_number(name, it->second, end);
  return v;
}

std::string CliParser::usage() const {
  std::string out = program_ + " — " + summary_ + "\n\nOptions:\n";
  for (const auto& o : options_) {
    std::string line = "  --" + o.name;
    if (!o.value_hint.empty()) line += " <" + o.value_hint + ">";
    while (line.size() < 32) line += ' ';
    out += line + o.help + "\n";
  }
  out += "  --help";
  out += std::string(32 - 8, ' ');
  out += "show this text\n";
  return out;
}

}  // namespace tbi
