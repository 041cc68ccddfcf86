/// IndexMapping::map_run must equal map() position by position, along rows
/// and down columns, for every make_mapping spec on every standard device,
/// and through RowOffsetMapping.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dram/standards.hpp"
#include "mapping/factory.hpp"
#include "mapping/offset.hpp"

namespace tbi::mapping {
namespace {

const std::vector<std::string> kSpecs = {
    "row-major",      "row-major/robaco", "row-major/rocoba",
    "row-major/xor",  "optimized",        "optimized/diag",
    "optimized/tile", "optimized/diag+tile", "optimized/none"};

/// Runs of every length from every start of each row and each column of
/// the triangle (lengths capped at 40 to keep it quick), compared with
/// map() one position at a time.
void expect_runs_match_map(const IndexMapping& m, const std::string& where) {
  const std::uint64_t n = m.space().side;
  std::vector<dram::Address> out(n);
  for (const bool along_row : {true, false}) {
    for (std::uint64_t line = 0; line < n; ++line) {
      const std::uint64_t len = n - line;
      for (std::uint64_t start = 0; start < len; start += 7) {
        const std::uint64_t count = std::min<std::uint64_t>(len - start, 40);
        const std::uint64_t i = along_row ? line : start;
        const std::uint64_t j = along_row ? start : line;
        m.map_run(i, j, along_row, count, out.data());
        for (std::uint64_t k = 0; k < count; ++k) {
          const dram::Address want = along_row ? m.map(i, j + k) : m.map(i + k, j);
          ASSERT_EQ(out[k], want) << where << (along_row ? " row " : " column ") << line
                                  << " from " << start << " +" << k;
        }
      }
    }
  }
}

TEST(MapRun, EqualsMapForEverySpecOnEveryDevice) {
  for (const dram::DeviceConfig& dev : dram::standard_configs()) {
    for (const std::string& spec : kSpecs) {
      const auto m = make_mapping(spec, dev, 97);
      expect_runs_match_map(*m, dev.name + " " + spec);
      const RowOffsetMapping shifted(make_mapping(spec, dev, 97), dev.rows_per_bank / 2,
                                     dev.rows_per_bank);
      expect_runs_match_map(shifted, dev.name + " " + spec + " +rows");
    }
  }
}

}  // namespace
}  // namespace tbi::mapping
