/// \file mapping_visualizer.cpp
/// E2 — ASCII rendition of the paper's Fig. 1: how the optimized mapping
/// assigns banks, columns and rows across the 2-D index space, shown on a
/// deliberately tiny device (2 banks, 4-column pages) so the pattern is
/// readable, exactly like the figure.
///
///   (a) diagonal bank round-robin
///   (b) page-tiling rectangles
///   (c) banks + columns + rows combined
///   (d) the same with the bank-dependent column offset
///
/// Usage: mapping_visualizer [--banks N] [--columns C] [--size S]
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"
#include "dram/standards.hpp"
#include "mapping/optimized.hpp"

namespace {

tbi::dram::DeviceConfig tiny_device(unsigned banks, unsigned columns) {
  // Timing values are irrelevant for address visualization; reuse DDR3 and
  // shrink the geometry.
  tbi::dram::DeviceConfig dev = *tbi::dram::find_config("DDR3-800");
  dev.name = "tiny";
  dev.banks = banks;
  dev.bank_groups = 1;
  dev.columns_per_page = columns;
  dev.rows_per_bank = 4096;
  return dev;
}

void print_grid(const char* title, std::uint64_t size,
                const std::function<std::string(std::uint64_t, std::uint64_t)>& cell) {
  std::printf("%s\n", title);
  for (std::uint64_t i = 0; i < size; ++i) {
    std::fputs("  ", stdout);
    for (std::uint64_t j = 0; j < size; ++j) {
      std::printf("%s ", cell(i, j).c_str());
    }
    std::fputs("\n", stdout);
  }
  std::fputs("\n", stdout);
}

}  // namespace

// A toy geometry that is not a power of two, or that the mapping cannot
// tile or hold, throws std::invalid_argument.
int main(int argc, char** argv) try {
  tbi::CliParser cli("mapping_visualizer", "ASCII rendition of the paper's Fig. 1");
  cli.add_option("banks", "n", "banks of the toy device, a power of two (default 2)");
  cli.add_option("columns", "c", "columns per page in bursts, a power of two (default 4)");
  cli.add_option("size", "s", "rendered index-space size (default 8)");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }

  const auto banks = cli.read_count<unsigned>("banks", 2, 1);
  const auto columns = cli.read_count<unsigned>("columns", 4, 1);
  const auto size = cli.read_count<std::uint64_t>("size", 8, 1);
  const auto dev = tiny_device(banks, columns);
  dev.validate();

  using tbi::mapping::OptimizedMapping;
  using tbi::mapping::OptimizedOptions;

  const OptimizedMapping diag(dev, size, OptimizedOptions{true, false, false});
  const OptimizedMapping tiled(dev, size, OptimizedOptions{false, true, false});
  const OptimizedMapping combined(dev, size, OptimizedOptions{true, true, false});
  const OptimizedMapping full(dev, size);

  std::printf("Toy device: %u banks, %u-burst pages -> %llu x %llu tiles\n\n",
              dev.banks, dev.columns_per_page,
              static_cast<unsigned long long>(full.tile_width()),
              static_cast<unsigned long long>(full.tile_height()));

  // Build labels with snprintf: gcc 12's -Wrestrict misfires on
  // `"B" + std::to_string(...)` rvalue concatenation chains (PR105651).
  const auto bcr_label = [](const tbi::dram::Address& a) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "B%uC%uR%u", a.bank, a.column, a.row);
    return std::string(buf);
  };

  print_grid("(a) Diagonal bank round-robin (Fig. 1a): Bx", size,
             [&](std::uint64_t i, std::uint64_t j) {
               char buf[16];
               std::snprintf(buf, sizeof buf, "B%u", diag.map(i, j).bank);
               return std::string(buf);
             });

  print_grid("(b) Page tiling (Fig. 1b): one page per rectangle, Cx = column", size,
             [&](std::uint64_t i, std::uint64_t j) {
               char buf[16];
               std::snprintf(buf, sizeof buf, "C%u", tiled.map(i, j).column);
               return std::string(buf);
             });

  print_grid("(c) Banks, columns and rows combined (Fig. 1c): BxCyRz", size,
             [&](std::uint64_t i, std::uint64_t j) { return bcr_label(combined.map(i, j)); });

  print_grid("(d) With the bank-dependent column offset (Fig. 1d): BxCyRz", size,
             [&](std::uint64_t i, std::uint64_t j) { return bcr_label(full.map(i, j)); });

  std::puts(
      "Reading guide: in (c) every bank's page switch happens at the same\n"
      "rectangle boundary; in (d) the circular per-bank shift staggers the\n"
      "switches so one bank's page miss hides behind the others' hits.");
  return 0;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
