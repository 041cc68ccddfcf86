/// \file bits.hpp
/// Small bit-manipulation helpers used by address mappings and decoders.
///
/// The optimized interleaver mapping is specified in terms of additions,
/// logical shifts and bitwise operations (paper §II); these helpers are the
/// vocabulary that implementation is written in, and they are unit-tested
/// exhaustively because a single mis-extracted bit silently corrupts a
/// bandwidth experiment.
#pragma once

#include <cassert>
#include <cstdint>

namespace tbi {

/// True iff \p v is a power of two (0 is not).
constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// floor(log2(v)) for v > 0.
constexpr unsigned ilog2(std::uint64_t v) {
  assert(v != 0);
  unsigned r = 0;
  while (v >>= 1) ++r;
  return r;
}

/// ceil(log2(v)) for v > 0; number of bits needed to index v items.
constexpr unsigned clog2(std::uint64_t v) {
  assert(v != 0);
  return is_pow2(v) ? ilog2(v) : ilog2(v) + 1;
}

/// Mask with the low \p n bits set. n may be 0..63.
constexpr std::uint64_t low_mask(unsigned n) {
  assert(n < 64);
  return (std::uint64_t{1} << n) - 1;
}

/// Extract \p count bits of \p v starting at bit \p pos (LSB = 0).
constexpr std::uint64_t extract_bits(std::uint64_t v, unsigned pos, unsigned count) {
  assert(pos + count <= 64);
  if (count == 64) return v >> pos;
  return (v >> pos) & low_mask(count);
}

}  // namespace tbi
