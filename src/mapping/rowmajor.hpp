/// \file rowmajor.hpp
/// Baseline mapping: SRAM-style packed row-major linearization, decoded by
/// a conventional controller address layout (dram/decoder.hpp).
///
/// This is the paper's "Row-Major Mapping" column of Table I: the write
/// phase walks the linear address space sequentially (fast), while the
/// column-wise read phase strides by one interleaver row length per access
/// and thrashes DRAM pages (slow on fast speed grades).
#pragma once

#include "dram/decoder.hpp"
#include "mapping/mapping.hpp"

namespace tbi::mapping {

class RowMajorMapping final : public IndexMapping {
 public:
  /// \p side is the triangle side in bursts. The linearization is packed
  /// triangular: row i starts at offset i*n - i(i-1)/2, no wasted storage,
  /// like the SRAM implementation.
  RowMajorMapping(const dram::DeviceConfig& device, std::uint64_t side,
                  dram::AddressLayout layout = dram::AddressLayout::RoBaCoBg);

  dram::Address map(std::uint64_t i, std::uint64_t j) const override;
  void map_run(std::uint64_t i, std::uint64_t j, bool along_row, std::size_t count,
               dram::Address* out) const override;
  const IndexSpace& space() const override { return space_; }
  std::string name() const override;

  /// The linear burst index before physical decoding (exposed for tests).
  std::uint64_t linear_index(std::uint64_t i, std::uint64_t j) const;

 private:
  IndexSpace space_;
  dram::AddressDecoder decoder_;
};

}  // namespace tbi::mapping
