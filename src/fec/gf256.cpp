#include "fec/gf256.hpp"

#include <cassert>

namespace tbi::fec {

namespace {

struct MulTable {
  std::uint8_t row[256][256];
};

constexpr MulTable make_mul_table() {
  MulTable t{};
  for (unsigned m = 0; m < 256; ++m) {
    for (unsigned x = 0; x < 256; ++x) {
      t.row[m][x] = GF256::mul(static_cast<std::uint8_t>(m), static_cast<std::uint8_t>(x));
    }
  }
  return t;
}

// Multiplier-major: kMul.row[m][x] = m * x, backed by .rodata.
constinit const MulTable kMul = make_mul_table();

}  // namespace

std::uint8_t GF256::inv(std::uint8_t a) {
  assert(a != 0 && "GF256: inverse of zero");
  return kExp[255 - kLog[a]];
}

unsigned GF256::log_alpha(std::uint8_t a) {
  assert(a != 0 && "GF256: log of zero");
  return kLog[a];
}

void gf256_muladd(std::uint8_t* dst, const std::uint8_t* src, std::uint8_t m,
                  std::size_t len) {
  if (m == 0 || len == 0) return;
  const std::uint8_t* row = kMul.row[m];
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    dst[i] ^= row[src[i]];
    dst[i + 1] ^= row[src[i + 1]];
    dst[i + 2] ^= row[src[i + 2]];
    dst[i + 3] ^= row[src[i + 3]];
  }
  for (; i < len; ++i) dst[i] ^= row[src[i]];
}

}  // namespace tbi::fec
