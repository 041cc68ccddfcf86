#include "interleaver/triangular.hpp"

namespace tbi::interleaver {

TriangularInterleaver::TriangularInterleaver(std::uint64_t side) : side_(side) {
  if (side == 0) throw std::invalid_argument("TriangularInterleaver: side must be > 0");
  row_offset_.resize(side);
  for (std::uint64_t i = 0; i < side; ++i) row_offset_[i] = tri_row_offset(side, i);
}

std::pair<std::uint64_t, std::uint64_t> TriangularInterleaver::write_position(
    std::uint64_t k) const {
  if (k >= capacity()) throw std::out_of_range("TriangularInterleaver::write_position");
  const std::uint64_t i = tri_row_of(side_, k);
  return {i, k - tri_row_offset(side_, i)};
}

std::uint64_t TriangularInterleaver::permute(std::uint64_t k) const {
  const auto [i, j] = write_position(k);
  return output_index(i, j);
}

void TriangularInterleaver::interleave_into(std::span<const std::uint8_t> in,
                                            std::span<std::uint8_t> out) const {
  if (in.size() != capacity() || out.size() != capacity()) {
    throw std::invalid_argument("TriangularInterleaver: bad block size");
  }
  // out[output_index(i, j)] = out[row_offset_[j] + i]: sequential read,
  // table-driven scatter.
  const std::uint64_t* off = row_offset_.data();
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < side_; ++i) {
    const std::uint64_t len = side_ - i;  // tri_row_length(side_, i)
    for (std::uint64_t j = 0; j < len; ++j) out[off[j] + i] = in[k++];
  }
}

void TriangularInterleaver::deinterleave_into(std::span<const std::uint8_t> in,
                                              std::span<std::uint8_t> out) const {
  if (in.size() != capacity() || out.size() != capacity()) {
    throw std::invalid_argument("TriangularInterleaver: bad block size");
  }
  const std::uint64_t* off = row_offset_.data();
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < side_; ++i) {
    const std::uint64_t len = side_ - i;
    for (std::uint64_t j = 0; j < len; ++j) out[k++] = in[off[j] + i];
  }
}

}  // namespace tbi::interleaver
