/// \file block.hpp
/// Rectangular block interleaver (write row-wise, read column-wise).
///
/// This is the classic SRAM interleaver structure and serves two roles in
/// the reproduction: it is the stage-1 interleaver that distributes the
/// symbols sharing one DRAM burst over different code words (paper §II),
/// and it is the reference behavior the triangular interleaver tests
/// compare against.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>

#include "common/mathutil.hpp"

namespace tbi::interleaver {

class BlockInterleaver {
 public:
  /// \p rows x \p cols storage array; capacity() symbols per block.
  BlockInterleaver(std::uint64_t rows, std::uint64_t cols);

  std::uint64_t rows() const { return rows_.value(); }
  std::uint64_t cols() const { return cols_.value(); }
  std::uint64_t capacity() const { return rows() * cols(); }

  /// Output position of input symbol \p k (row-major in, column-major out).
  std::uint64_t permute(std::uint64_t k) const;
  /// Inverse permutation.
  std::uint64_t inverse(std::uint64_t k) const;

  /// Apply the permutation (or its inverse) to a full block, writing into
  /// a caller-owned buffer; both spans must be capacity() long and must
  /// not alias.
  void interleave_into(std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out) const;
  void deinterleave_into(std::span<const std::uint8_t> in,
                         std::span<std::uint8_t> out) const;

 private:
  /// Both dimensions divide every permute() and inverse() argument.
  Divisor rows_;
  Divisor cols_;
};

}  // namespace tbi::interleaver
