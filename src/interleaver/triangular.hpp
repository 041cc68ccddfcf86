/// \file triangular.hpp
/// Functional triangular block interleaver (paper §I).
///
/// Symbols of consecutive code words are written row-wise into the upper
/// left half of a square array (row i holds n-i symbols) and read
/// column-wise. Because the upper-left triangle is symmetric in (i,j),
/// the column-wise packed output offset of column j equals the row-wise
/// packed offset of row j — both are tri_row_offset(n, j) — which gives a
/// closed-form O(1) permutation used by both the functional model and the
/// tests.
///
/// The interleaver depth grows along the stream: the first symbols of a
/// frame are spread shallowly, later ones deeply — exactly the property
/// that matches the slowly fading optical LEO channel (coherence > 2 ms),
/// where error bursts are long but the link quality ramps in and out.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/mathutil.hpp"

namespace tbi::interleaver {

class TriangularInterleaver {
 public:
  explicit TriangularInterleaver(std::uint64_t side);

  std::uint64_t side() const { return side_; }
  std::uint64_t capacity() const { return triangular_number(side_); }

  /// (row, col) of the k-th symbol in *write* (input) order.
  std::pair<std::uint64_t, std::uint64_t> write_position(std::uint64_t k) const;

  /// Packed input offset of position (i, j).
  std::uint64_t input_index(std::uint64_t i, std::uint64_t j) const {
    return tri_row_offset(side_, i) + j;
  }

  /// Packed output offset of position (i, j) (column-wise read order).
  std::uint64_t output_index(std::uint64_t i, std::uint64_t j) const {
    return tri_row_offset(side_, j) + i;
  }

  /// Output position of input symbol \p k; an involution composed with
  /// itself yields the identity (tested property).
  std::uint64_t permute(std::uint64_t k) const;

  /// Apply the permutation (or its inverse) to a full block, writing into
  /// a caller-owned buffer; both spans must be capacity() long and must
  /// not alias.
  void interleave_into(std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out) const;
  void deinterleave_into(std::span<const std::uint8_t> in,
                         std::span<std::uint8_t> out) const;

 private:
  std::uint64_t side_;
  /// row_offset_[i] = tri_row_offset(side_, i): hoists the per-symbol
  /// offset arithmetic out of the block-permutation inner loops.
  std::vector<std::uint64_t> row_offset_;
};

}  // namespace tbi::interleaver
