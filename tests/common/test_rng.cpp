#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace tbi {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedResets) {
  Rng a(7);
  const auto x0 = a.next_u64();
  a.next_u64();
  a.reseed(7);
  EXPECT_EQ(a.next_u64(), x0);
}

TEST(Rng, UniformInBounds) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform(bound), bound);
  }
}

TEST(Rng, UniformCoversAllResidues) {
  Rng rng(11);
  std::vector<int> hits(7, 0);
  for (int i = 0; i < 7000; ++i) ++hits[rng.uniform(7)];
  for (int h : hits) {
    EXPECT_GT(h, 700);  // each residue ~1000 expected; crude uniformity
    EXPECT_LT(h, 1300);
  }
}

TEST(Rng, UniformDoubleRange) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliRate) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(13);
  const double p = 0.1;
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) sum += static_cast<double>(rng.geometric(p));
  // mean of failures-before-success = (1-p)/p = 9
  EXPECT_NEAR(sum / trials, 9.0, 0.5);
}

TEST(Rng, GeometricPOne) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.geometric(1.0), 0u);
}

TEST(Rng, GeometricEdgeProbabilities) {
  // p = 0 and p = 1 are decided without a draw.
  Rng rng(3);
  EXPECT_EQ(rng.geometric(0.0), Rng::kNever);
  EXPECT_EQ(rng.geometric(1.0), 0u);
  EXPECT_EQ(rng.next_u64(), Rng(3).next_u64());
  // A vanishing p overflows uint64_t on (nearly) every draw: saturate.
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.geometric(1e-300), Rng::kNever);
}

TEST(Rng, GeometricMatchesItsDistributionAcrossScales) {
  // Mean (1 - p) / p and P(G = 0) = p, from p = 1e-18 (variates near
  // 2^60, saturating about once in 1e8 draws) to p = 0.5.
  for (const double p : {1e-18, 2e-3, 0.5}) {
    Rng rng(17);
    const double log1m_p = std::log1p(-p);
    constexpr int kTrials = 40'000;
    double sum = 0;
    int zeros = 0;
    for (int i = 0; i < kTrials; ++i) {
      // Both entry points draw the same variate from the same state.
      Rng twin = rng;
      const std::uint64_t g = rng.geometric(p);
      EXPECT_EQ(twin.geometric_log1m(log1m_p), g);
      ASSERT_NE(g, Rng::kNever) << p;
      sum += static_cast<double>(g);
      zeros += g == 0;
    }
    const double mean = (1.0 - p) / p;
    // The standard deviation of G is sqrt(1 - p) / p; 6 standard errors.
    EXPECT_NEAR(sum / kTrials, mean, 6.0 * std::sqrt(1.0 - p) / p / std::sqrt(kTrials))
        << p;
    EXPECT_NEAR(zeros / static_cast<double>(kTrials), p,
                6.0 * std::sqrt(p * (1.0 - p) / kTrials) + 1e-9)
        << p;
  }
}

}  // namespace
}  // namespace tbi
