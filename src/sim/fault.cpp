#include "sim/fault.hpp"

#include <cstdlib>
#include <stdexcept>

namespace tbi::sim {

FaultSpec FaultSpec::parse(const std::string& spec) {
  FaultSpec out;
  if (spec.empty()) return out;
  const std::string action = "abort-after=";
  if (spec.rfind(action, 0) != 0) {
    throw std::invalid_argument("fault spec: unknown action '" + spec +
                                "' (only abort-after=K is supported)");
  }
  const std::string count = spec.substr(action.size());
  if (count.empty() || count.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument("fault spec: bad count '" + count + "'");
  }
  out.abort_after = std::strtoull(count.c_str(), nullptr, 10);
  if (out.abort_after == 0) {
    throw std::invalid_argument("fault spec: abort-after count must be >= 1");
  }
  return out;
}

FaultSpec FaultSpec::from_env() {
  const char* env = std::getenv("TBI_FAULT_INJECT");
  return env != nullptr ? parse(env) : FaultSpec{};
}

}  // namespace tbi::sim
