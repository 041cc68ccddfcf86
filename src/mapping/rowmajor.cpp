#include "mapping/rowmajor.hpp"

#include <stdexcept>

#include "common/mathutil.hpp"

namespace tbi::mapping {

RowMajorMapping::RowMajorMapping(const dram::DeviceConfig& device,
                                 std::uint64_t side, dram::AddressLayout layout)
    : decoder_(device, layout) {
  if (side == 0) throw std::invalid_argument("RowMajorMapping: side must be > 0");
  space_.side = side;
  space_.width = side;
  space_.height = side;
  if (triangular_number(side) > decoder_.capacity_bursts()) {
    throw std::invalid_argument("RowMajorMapping: interleaver exceeds device capacity");
  }
}

std::uint64_t RowMajorMapping::linear_index(std::uint64_t i, std::uint64_t j) const {
  return tri_row_offset(space_.side, i) + j;
}

dram::Address RowMajorMapping::map(std::uint64_t i, std::uint64_t j) const {
  return decoder_.decode(linear_index(i, j));
}

void RowMajorMapping::map_run(std::uint64_t i, std::uint64_t j, bool along_row,
                              std::size_t count, dram::Address* out) const {
  // A local copy: out's 32-bit stores could alias the decoder's unsigned
  // fields, which would reload them and redo the layout switch per position.
  const dram::AddressDecoder decoder = decoder_;
  if (along_row) {
    for (std::size_t k = 0; k < count; ++k) out[k] = decoder.decode(linear_index(i, j + k));
  } else {
    for (std::size_t k = 0; k < count; ++k) out[k] = decoder.decode(linear_index(i + k, j));
  }
}

std::string RowMajorMapping::name() const {
  // The ",packed" suffix names the linearization in committed records.
  return std::string("row-major[") + dram::to_string(decoder_.layout()) + ",packed]";
}

}  // namespace tbi::mapping
