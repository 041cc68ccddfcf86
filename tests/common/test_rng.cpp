#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "channel/leo.hpp"

namespace tbi {
namespace {

/// Standard normal CDF.
double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

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

TEST(Rng, NormalFillsEqualProbabilityBinsEvenly) {
  // Pearson's chi-square over 128 bins of equal probability under N(0, 1):
  // draw z lands in bin floor(128 Phi(z)).
  constexpr int kBins = 128;
  constexpr int kDraws = 1 << 21;
  Rng rng(29);
  std::vector<double> counts(kBins, 0.0);
  for (int i = 0; i < kDraws; ++i) {
    const double p = normal_cdf(rng.normal());
    counts[std::min(kBins - 1, static_cast<int>(p * kBins))] += 1;
  }
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0;
  for (const double c : counts) chi2 += (c - expected) * (c - expected) / expected;
  // df = 127: its mean plus six standard deviations.
  const double df = kBins - 1;
  EXPECT_LT(chi2, df + 6.0 * std::sqrt(2.0 * df));
}

TEST(Rng, NormalMomentsFadeThresholdAndTail) {
  // Mean, variance and four tail probabilities, each within six standard
  // errors: below the LEO fade threshold at the bench's 0.4% fade
  // fraction, past the ziggurat's tail start r on either side (the base
  // layer's tail path and its sign), and past r + 1/2 (the tail's shape).
  constexpr int kDraws = 1 << 22;
  channel::LeoChannelParams leo;
  leo.fade_probability = 0.004;
  const double threshold = channel::LeoFadingChannel(leo).threshold();
  constexpr double r = detail::NormalZiggurat::kTailStart;
  Rng rng(31);
  double sum = 0, sum_sq = 0;
  int faded = 0, above_r = 0, below_minus_r = 0, past_r_half = 0;
  for (int i = 0; i < kDraws; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
    faded += z < threshold;
    above_r += z > r;
    below_minus_r += z < -r;
    past_r_half += std::abs(z) > r + 0.5;
  }
  const double n = kDraws;
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.0, 6.0 / std::sqrt(n));
  EXPECT_NEAR(sum_sq / n - mean * mean, 1.0, 6.0 * std::sqrt(2.0 / n));
  for (const auto& [count, p] : {std::pair{faded, normal_cdf(threshold)},
                                 std::pair{above_r, normal_cdf(-r)},
                                 std::pair{below_minus_r, normal_cdf(-r)},
                                 std::pair{past_r_half, 2.0 * normal_cdf(-r - 0.5)}}) {
    EXPECT_NEAR(count / n, p, 6.0 * std::sqrt(p * (1.0 - p) / n)) << p;
  }
  EXPECT_NEAR(normal_cdf(threshold), 0.004, 1e-6);
}

}  // namespace
}  // namespace tbi
