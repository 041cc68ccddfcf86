#include "interleaver/twostage.hpp"

#include <stdexcept>

namespace tbi::interleaver {

TwoStageInterleaver::TwoStageInterleaver(std::uint64_t side_bursts,
                                         std::uint64_t symbols_per_burst)
    : stage2_(side_bursts),
      // Rejects symbols_per_burst == 0 before anything divides by it.
      stage1_(symbols_per_burst, symbols_per_burst),
      spb_(symbols_per_burst),
      super_block_symbols_(symbols_per_burst * symbols_per_burst),
      full_super_blocks_(stage2_.capacity() / symbols_per_burst),
      capacity_symbols_(stage2_.capacity() * symbols_per_burst) {}

std::uint64_t TwoStageInterleaver::permute(std::uint64_t k) const {
  if (k >= capacity_symbols_) throw std::out_of_range("TwoStageInterleaver::permute");
  const std::uint64_t sb = k / super_block_symbols_;

  // Stage 1: transpose within the super-block so each burst collects one
  // symbol of every code-word chunk. The (rare) partial tail keeps its
  // natural order (frames are sized to full super-blocks in practice).
  std::uint64_t m = k;
  if (sb < full_super_blocks_) {
    m = sb * super_block_symbols_.value() + stage1_.permute(k % super_block_symbols_);
  }

  // Stage 2: triangular permutation of whole bursts.
  const std::uint64_t burst = m / spb_;
  const std::uint64_t offset = m % spb_;
  return stage2_.permute(burst) * spb_.value() + offset;
}

std::uint64_t TwoStageInterleaver::inverse(std::uint64_t q) const {
  if (q >= capacity_symbols_) throw std::out_of_range("TwoStageInterleaver::inverse");

  // Undo stage 2 first: the triangular permutation of whole bursts is an
  // involution, so applying it again recovers the intermediate burst.
  const std::uint64_t burst = stage2_.permute(q / spb_);
  const std::uint64_t m = burst * spb_.value() + q % spb_;

  // Undo stage 1: the square transpose inside a full super-block (the
  // partial tail was passed through unpermuted).
  const std::uint64_t sb = m / super_block_symbols_;
  if (sb < full_super_blocks_) {
    return sb * super_block_symbols_.value() + stage1_.inverse(m % super_block_symbols_);
  }
  return m;
}

std::vector<std::uint8_t> TwoStageInterleaver::interleave(
    const std::vector<std::uint8_t>& in) const {
  if (in.size() != capacity_symbols()) {
    throw std::invalid_argument("TwoStageInterleaver: bad block size");
  }
  std::vector<std::uint8_t> out(in.size());
  for (std::uint64_t k = 0; k < in.size(); ++k) out[permute(k)] = in[k];
  return out;
}

std::vector<std::uint8_t> TwoStageInterleaver::deinterleave(
    const std::vector<std::uint8_t>& in) const {
  if (in.size() != capacity_symbols()) {
    throw std::invalid_argument("TwoStageInterleaver: bad block size");
  }
  std::vector<std::uint8_t> out(in.size());
  for (std::uint64_t k = 0; k < in.size(); ++k) out[k] = in[permute(k)];
  return out;
}

}  // namespace tbi::interleaver
