#include "sim/sweep.hpp"

#include <algorithm>

#include "dram/standards.hpp"

namespace tbi::sim {

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace

std::uint64_t job_seed(std::uint64_t base_seed, std::uint64_t index) {
  // Mix twice so consecutive indices land far apart even for tiny bases;
  // splitmix64 is a bijection, so distinct indices never collide under
  // one base seed.
  return splitmix64(splitmix64(base_seed) ^ index);
}

unsigned effective_threads(unsigned requested, std::uint64_t jobs) {
  constexpr unsigned kMaxThreads = 256;
  if (requested == 0) requested = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::clamp<std::uint64_t>(jobs, 1, std::min(requested, kMaxThreads)));
}

// ---------------------------------------------------------------------------
// Scenario grids
// ---------------------------------------------------------------------------

std::string Scenario::label() const {
  // Injective over the full tuple: every axis is always spelled out, so
  // two distinct cells can never share a label (eliding "triangular" or
  // the rs_k of channel-free cells used to collide e.g. distinct rs_k
  // cells under channel == "none").
  return device + "/" + mapping_spec + "/" + interleaver + "/" + channel + "/RS(255," +
         std::to_string(rs_k) + ")";
}

SweepGrid SweepGrid::paper_bandwidth_grid() {
  SweepGrid grid;
  for (const auto& device : dram::standard_configs()) {
    grid.devices.push_back(device.name);
  }
  grid.mapping_specs = {"row-major", "optimized"};
  return grid;
}

std::uint64_t SweepGrid::size() const {
  return static_cast<std::uint64_t>(devices.size()) * mapping_specs.size() *
         interleavers.size() * channels.size() * rs_ks.size();
}

std::vector<Scenario> SweepGrid::expand() const {
  std::vector<Scenario> cells;
  cells.reserve(size());
  for (const auto& device : devices) {
    for (const auto& mapping : mapping_specs) {
      for (const auto& il : interleavers) {
        for (const auto& ch : channels) {
          for (const unsigned k : rs_ks) {
            Scenario s;
            s.device = device;
            s.mapping_spec = mapping;
            s.interleaver = il;
            s.channel = ch;
            s.rs_k = k;
            cells.push_back(std::move(s));
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace tbi::sim
