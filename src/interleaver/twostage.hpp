/// \file twostage.hpp
/// Two-stage interleaver of the paper's §II.
///
/// One DRAM burst carries many symbols (e.g. 512-bit burst vs 3-bit
/// symbols). Stage 1 is a small SRAM block interleaver that fills each
/// burst with symbols from `symbols_per_burst` *different* code-word
/// chunks, so that when stage 2 — the DRAM-resident triangular block
/// interleaver — permutes whole bursts, symbol-level burst errors on the
/// channel still land in distinct code words.
///
/// The functional model here composes both permutations symbol-exactly;
/// the bandwidth experiments use only the stage-2 geometry (bursts), which
/// is the part that touches DRAM.
#pragma once

#include <cstdint>
#include <vector>

#include "interleaver/block.hpp"
#include "interleaver/triangular.hpp"

namespace tbi::interleaver {

class TwoStageInterleaver {
 public:
  /// \p side_bursts: triangle side of the stage-2 (burst) interleaver.
  /// \p symbols_per_burst: symbols packed into one DRAM burst.
  TwoStageInterleaver(std::uint64_t side_bursts, std::uint64_t symbols_per_burst);

  std::uint64_t side_bursts() const { return stage2_.side(); }
  std::uint64_t symbols_per_burst() const { return spb_.value(); }
  std::uint64_t capacity_bursts() const { return stage2_.capacity(); }
  std::uint64_t capacity_symbols() const { return capacity_symbols_; }

  /// End-to-end output position of input symbol \p k.
  std::uint64_t permute(std::uint64_t k) const;

  /// Inverse of permute(): input position of output symbol \p q. Both
  /// stages are involutions (square transpose, triangular permutation),
  /// but their composition is not, so the inverse applies them in reverse
  /// order. O(1) with no division instruction, so a streaming consumer
  /// can map sparse channel events back to code-word positions without
  /// materializing the frame.
  std::uint64_t inverse(std::uint64_t q) const;

  std::vector<std::uint8_t> interleave(const std::vector<std::uint8_t>& in) const;
  std::vector<std::uint8_t> deinterleave(const std::vector<std::uint8_t>& in) const;

  /// Code-word chunk that input symbol \p k belongs to under the
  /// "consecutive chunks of spb symbols" framing (used by tests to verify
  /// the distinct-code-words-per-burst property).
  std::uint64_t chunk_of_input(std::uint64_t k) const { return (k / spb_) % spb_; }

 private:
  TriangularInterleaver stage2_;
  BlockInterleaver stage1_;  ///< spb x spb block per super-block
  Divisor spb_;
  Divisor super_block_symbols_;  ///< spb^2
  std::uint64_t full_super_blocks_;
  std::uint64_t capacity_symbols_;
};

}  // namespace tbi::interleaver
