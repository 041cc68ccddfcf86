#include "interleaver/block.hpp"

namespace tbi::interleaver {

namespace {

std::uint64_t checked_dimension(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("BlockInterleaver: dimensions must be positive");
  return n;
}

}  // namespace

BlockInterleaver::BlockInterleaver(std::uint64_t rows, std::uint64_t cols)
    : rows_(checked_dimension(rows)), cols_(checked_dimension(cols)) {}

std::uint64_t BlockInterleaver::permute(std::uint64_t k) const {
  if (k >= capacity()) throw std::out_of_range("BlockInterleaver::permute");
  const std::uint64_t i = k / cols_;  // written row-wise
  const std::uint64_t j = k % cols_;
  return j * rows() + i;  // read column-wise
}

std::uint64_t BlockInterleaver::inverse(std::uint64_t k) const {
  if (k >= capacity()) throw std::out_of_range("BlockInterleaver::inverse");
  const std::uint64_t j = k / rows_;
  const std::uint64_t i = k % rows_;
  return i * cols() + j;
}

void BlockInterleaver::interleave_into(std::span<const std::uint8_t> in,
                                       std::span<std::uint8_t> out) const {
  if (in.size() != capacity() || out.size() != capacity()) {
    throw std::invalid_argument("BlockInterleaver: bad size");
  }
  // Row-wise in, column-wise out: iterate the write order directly so the
  // input is read sequentially and no div/mod runs per symbol.
  const std::uint64_t rows = this->rows();
  const std::uint64_t cols = this->cols();
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::uint8_t* col = out.data() + i;
    for (std::uint64_t j = 0; j < cols; ++j) col[j * rows] = in[k++];
  }
}

void BlockInterleaver::deinterleave_into(std::span<const std::uint8_t> in,
                                         std::span<std::uint8_t> out) const {
  if (in.size() != capacity() || out.size() != capacity()) {
    throw std::invalid_argument("BlockInterleaver: bad size");
  }
  const std::uint64_t rows = this->rows();
  const std::uint64_t cols = this->cols();
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < rows; ++i) {
    const std::uint8_t* col = in.data() + i;
    for (std::uint64_t j = 0; j < cols; ++j) out[k++] = col[j * rows];
  }
}

}  // namespace tbi::interleaver
