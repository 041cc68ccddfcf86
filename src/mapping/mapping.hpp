/// \file mapping.hpp
/// Interface: interleaver index space -> DRAM address.
///
/// The triangular block interleaver is a 2-D index space at burst
/// granularity: position (row i, column j) holds one DRAM burst worth of
/// symbols (the stage-1 SRAM interleaver has already grouped symbols of
/// different code words into each burst, paper §II). The write phase
/// visits positions row-wise, the read phase column-wise; an IndexMapping
/// decides which DRAM {bank, row, column} each position lives in — that
/// choice alone determines the achievable bandwidth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "dram/types.hpp"

namespace tbi::mapping {

/// Geometry of the (padded) burst-granular index space.
struct IndexSpace {
  std::uint64_t side = 0;    ///< triangle side n: row i holds n-i bursts
  std::uint64_t width = 0;   ///< padded width  (>= side)
  std::uint64_t height = 0;  ///< padded height (>= side)
};

class IndexMapping {
 public:
  virtual ~IndexMapping() = default;

  /// Map position (row \p i, column \p j), 0 <= i,j < side(), j < n-i for
  /// triangular workloads (rectangular callers may use the full square).
  virtual dram::Address map(std::uint64_t i, std::uint64_t j) const = 0;

  /// Map \p count positions from (\p i, \p j) on: (i, j + k) along the
  /// row, or (i + k, j) down the column; out[k] equals map() of the k-th
  /// position. Mappings with inline per-position code override it to save
  /// the virtual call per position.
  virtual void map_run(std::uint64_t i, std::uint64_t j, bool along_row,
                       std::size_t count, dram::Address* out) const {
    for (std::size_t k = 0; k < count; ++k) {
      out[k] = along_row ? map(i, j + k) : map(i + k, j);
    }
  }

  virtual const IndexSpace& space() const = 0;
  virtual std::string name() const = 0;
};

}  // namespace tbi::mapping
