#include "fec/gf256.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "fec/gf256_simd.hpp"

namespace tbi::fec {
namespace {

TEST(GF256, AddIsXor) {
  EXPECT_EQ(GF256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(GF256::add(7, 7), 0);
  EXPECT_EQ(GF256::sub(0x53, 0xCA), GF256::add(0x53, 0xCA));
}

TEST(GF256, MulBasics) {
  EXPECT_EQ(GF256::mul(0, 77), 0);
  EXPECT_EQ(GF256::mul(77, 0), 0);
  EXPECT_EQ(GF256::mul(1, 77), 77);
  EXPECT_EQ(GF256::mul(77, 1), 77);
  // alpha * alpha^254 = alpha^255 = 1
  EXPECT_EQ(GF256::mul(GF256::pow_alpha(1), GF256::pow_alpha(254)), 1);
}

TEST(GF256, MulCommutativeAssociativeSample) {
  for (unsigned a = 1; a < 256; a += 17) {
    for (unsigned b = 1; b < 256; b += 23) {
      EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
      for (unsigned c = 1; c < 256; c += 51) {
        EXPECT_EQ(GF256::mul(GF256::mul(a, b), c), GF256::mul(a, GF256::mul(b, c)));
      }
    }
  }
}

TEST(GF256, DistributesOverAdd) {
  for (unsigned a = 1; a < 256; a += 13) {
    for (unsigned b = 0; b < 256; b += 19) {
      for (unsigned c = 0; c < 256; c += 29) {
        EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
                  GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
      }
    }
  }
}

TEST(GF256, EveryNonzeroElementHasInverse) {
  for (unsigned a = 1; a < 256; ++a) {
    const std::uint8_t inv = GF256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), inv), 1) << "a=" << a;
    EXPECT_EQ(GF256::div(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(a)), 1);
  }
}

TEST(GF256, AlphaGeneratesTheFullMultiplicativeGroup) {
  bool seen[256] = {false};
  for (unsigned p = 0; p < 255; ++p) {
    const std::uint8_t v = GF256::pow_alpha(p);
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[v]) << "alpha^" << p << " repeats";
    seen[v] = true;
  }
  EXPECT_EQ(GF256::pow_alpha(255), GF256::pow_alpha(0));
}

TEST(GF256, LogIsInverseOfPow) {
  for (unsigned p = 0; p < 255; ++p) {
    EXPECT_EQ(GF256::log_alpha(GF256::pow_alpha(p)), p);
  }
}

/// Naive carry-less (schoolbook) multiply: shift-and-add in GF(2)[x],
/// then reduce by the primitive polynomial. The table-driven mul()
/// (doubled antilog table indexed with log(a)+log(b), no modulo) must
/// reproduce it for every one of the 256 x 256 input pairs.
std::uint8_t carryless_reference_mul(std::uint8_t a, std::uint8_t b) {
  unsigned product = 0;
  for (unsigned bit = 0; bit < 8; ++bit) {
    if (b & (1u << bit)) product ^= static_cast<unsigned>(a) << bit;
  }
  for (int degree = 14; degree >= 8; --degree) {
    if (product & (1u << degree)) {
      product ^= GF256::kPrimitivePoly << (degree - 8);
    }
  }
  return static_cast<std::uint8_t>(product);
}

TEST(GF256, MulMatchesCarrylessReferenceExhaustively) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      ASSERT_EQ(GF256::mul(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b)),
                carryless_reference_mul(static_cast<std::uint8_t>(a),
                                        static_cast<std::uint8_t>(b)))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(GF256, DivInvertsMulExhaustively) {
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 1; b < 256; ++b) {
      const std::uint8_t p = GF256::mul(static_cast<std::uint8_t>(a),
                                        static_cast<std::uint8_t>(b));
      ASSERT_EQ(GF256::div(p, static_cast<std::uint8_t>(b)), a)
          << "a=" << a << " b=" << b;
    }
  }
}

/// One gf256_muladd call checked against the carry-less reference on
/// pattern buffers with guard bytes. The whole buffer is compared, so a
/// byte written outside [doff, doff + len) fails as surely as a wrong
/// product.
void check_muladd(const std::vector<std::uint8_t>& src,
                  const std::vector<std::uint8_t>& dst0, std::size_t soff,
                  std::size_t doff, unsigned m, std::size_t len) {
  std::vector<std::uint8_t> dst = dst0;
  std::vector<std::uint8_t> want = dst0;
  for (std::size_t i = 0; i < len; ++i) {
    want[doff + i] ^= carryless_reference_mul(static_cast<std::uint8_t>(m),
                                              src[soff + i]);
  }
  gf256_muladd(dst.data() + doff, src.data() + soff, static_cast<std::uint8_t>(m),
               len);
  ASSERT_EQ(dst, want) << "m=" << m << " len=" << len << " soff=" << soff
                       << " doff=" << doff;
}

TEST(Gf256SimdOracle, EveryMultiplierEveryLengthEveryBackend) {
  // gf256_simd.hpp names one backend, and gf256_muladd is its kernel.
  EXPECT_STREQ(gf256_backend_name(gf256_active_backend()), "scalar");

  // Every multiplier, lengths 0..64 and one full code word. Both offsets
  // rotate with the sweep, so aligned and misaligned src/dst pairs ride
  // through every multiplier and length.
  std::vector<std::size_t> lens;
  for (std::size_t l = 0; l <= 64; ++l) lens.push_back(l);
  lens.push_back(255);
  constexpr std::size_t kPad = 16;  // guard bytes below and above
  const std::size_t size = 2 * kPad + 8 + 255;
  std::mt19937 rng(0xC0DEu);
  std::vector<std::uint8_t> src(size), dst0(size);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  for (auto& b : dst0) b = static_cast<std::uint8_t>(rng());

  for (unsigned m = 0; m < 256; ++m) {
    for (std::size_t li = 0; li < lens.size(); ++li) {
      const std::size_t soff = kPad + ((m + li) & 7);
      const std::size_t doff = kPad + ((m + 5 * li) & 7);
      check_muladd(src, dst0, soff, doff, m, lens[li]);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(Gf256SimdOracle, EverySrcDstMisalignmentPair) {
  // Fixed multiplier and an odd length, the complete 32x32 src/dst
  // offset grid.
  constexpr unsigned kM = 0x57;
  constexpr std::size_t kLen = 97;
  constexpr std::size_t kPad = 16;
  const std::size_t size = 2 * kPad + 32 + kLen;
  std::mt19937 rng(0xA11Du);
  std::vector<std::uint8_t> src(size), dst0(size);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  for (auto& b : dst0) b = static_cast<std::uint8_t>(rng());

  for (std::size_t soff = 0; soff < 32; ++soff) {
    for (std::size_t doff = 0; doff < 32; ++doff) {
      check_muladd(src, dst0, kPad + soff, kPad + doff, kM, kLen);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace tbi::fec
