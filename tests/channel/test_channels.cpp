#include <gtest/gtest.h>

#include <cmath>

#include "channel/bsc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/leo.hpp"

namespace tbi::channel {
namespace {

TEST(CorruptSymbol, AlwaysChangesValueWithinMask) {
  Rng rng(1);
  for (unsigned bits : {1u, 3u, 8u}) {
    for (int i = 0; i < 200; ++i) {
      std::uint8_t s = static_cast<std::uint8_t>(rng.next_u64());
      const std::uint8_t before = s;
      corrupt_symbol(s, bits, rng);
      EXPECT_NE(s, before);
      if (bits < 8) {
        EXPECT_EQ(s >> bits, before >> bits) << "high bits must not change";
      }
    }
  }
}

TEST(Symmetric, ErrorRateMatches) {
  SymmetricChannel ch(0.1, 3);
  Rng rng(7);
  std::vector<std::uint8_t> data(100000, 0);
  const auto errors = ch.apply_range(ch.position(), data, rng);
  EXPECT_NEAR(static_cast<double>(errors) / data.size(), 0.1, 0.01);
  std::uint64_t nonzero = 0;
  for (auto s : data) nonzero += s != 0;
  EXPECT_EQ(nonzero, errors);
}

TEST(Symmetric, ZeroAndOneProbabilities) {
  Rng rng(2);
  std::vector<std::uint8_t> data(1000, 0);
  SymmetricChannel none(0.0, 3);
  EXPECT_EQ(none.apply_range(none.position(), data, rng), 0u);
  SymmetricChannel all(1.0, 3);
  EXPECT_EQ(all.apply_range(all.position(), data, rng), data.size());
}

TEST(Symmetric, RejectsBadParams) {
  EXPECT_THROW(SymmetricChannel(-0.1, 3), std::invalid_argument);
  EXPECT_THROW(SymmetricChannel(1.1, 3), std::invalid_argument);
  EXPECT_THROW(SymmetricChannel(0.5, 0), std::invalid_argument);
}

TEST(GilbertElliott, StationaryBadFraction) {
  const auto p = GilbertElliottParams::from_burst_profile(1000, 0.2, 0.5, 3);
  GilbertElliottChannel ch(p);
  EXPECT_NEAR(ch.stationary_bad(), 0.2, 1e-9);
}

TEST(GilbertElliott, ProducesBurstsNotUniformErrors) {
  // Same average error rate as a BSC, but errors must cluster: compare the
  // number of error-run boundaries; bursty channels have far fewer.
  const double mean_burst = 500;
  const auto p = GilbertElliottParams::from_burst_profile(mean_burst, 0.1, 1.0, 3);
  GilbertElliottChannel ge(p);
  Rng rng(11);
  std::vector<std::uint8_t> data(200000, 0);
  const auto ge_errors = ge.apply_range(ge.position(), data, rng);
  ASSERT_GT(ge_errors, 1000u);

  std::uint64_t transitions = 0;
  for (std::size_t i = 1; i < data.size(); ++i) {
    transitions += (data[i] != 0) != (data[i - 1] != 0);
  }
  // A memoryless channel at the same rate would have ~2*rate*(1-rate)*N
  // transitions; the burst channel has ~2*N/(mean_burst+mean_gap).
  const double rate = static_cast<double>(ge_errors) / data.size();
  const double memoryless = 2 * rate * (1 - rate) * data.size();
  EXPECT_LT(static_cast<double>(transitions), memoryless / 10);
}

TEST(GilbertElliott, MeanBurstLengthRoughlyMatches) {
  const double mean_burst = 200;
  const auto p = GilbertElliottParams::from_burst_profile(mean_burst, 0.1, 1.0, 3);
  GilbertElliottChannel ge(p);
  Rng rng(23);
  std::vector<std::uint8_t> data(500000, 0);
  ge.apply_range(ge.position(), data, rng);
  // Measure mean run length of corrupted symbols.
  std::uint64_t runs = 0, in_run = 0, total = 0;
  for (auto s : data) {
    if (s != 0) {
      ++total;
      if (!in_run) ++runs, in_run = 1;
    } else {
      in_run = 0;
    }
  }
  ASSERT_GT(runs, 50u);
  const double measured = static_cast<double>(total) / static_cast<double>(runs);
  EXPECT_NEAR(measured, mean_burst, mean_burst * 0.35);
}

TEST(GilbertElliott, RejectsBadProfiles) {
  EXPECT_THROW(GilbertElliottParams::from_burst_profile(0.5, 0.1, 0.5, 3),
               std::invalid_argument);
  EXPECT_THROW(GilbertElliottParams::from_burst_profile(100, 0.0, 0.5, 3),
               std::invalid_argument);
  GilbertElliottParams p;
  p.p_gb = 1.5;
  EXPECT_THROW(GilbertElliottChannel{p}, std::invalid_argument);
}

TEST(Leo, FadeDutyCycleMatchesTarget) {
  LeoChannelParams p;
  p.fade_probability = 0.1;
  p.fade_depth_error_rate = 1.0;
  p.symbols_per_sample = 256;
  // Very short coherence so the 4M-symbol window spans hundreds of
  // independent fade intervals and the duty cycle concentrates.
  p.coherence_time_s = 2e-7;
  LeoFadingChannel ch(p);
  Rng rng(5);
  std::vector<std::uint8_t> data(4'000'000, 0);
  const auto errors = ch.apply_range(ch.position(), data, rng);
  EXPECT_NEAR(static_cast<double>(errors) / data.size(), 0.1, 0.05);
}

TEST(Leo, ShortStreamsStartFromStationaryState) {
  // Regression: the AR(1) power process used to start at state = 0 (the
  // median, with zero variance), so every fresh channel was guaranteed
  // fade-free until the state random-walked down — strongly correlated
  // processes (rho ~ 0.99) under-faded short streams by an order of
  // magnitude. The first sample must be drawn from the stationary N(0,1),
  // which makes the fade duty cycle of many independent short streams
  // match the configured probability.
  LeoChannelParams p;
  p.symbol_rate_hz = 1.0;
  p.coherence_time_s = 6400.0;  // 100 samples per coherence -> rho ~ 0.99
  p.symbols_per_sample = 64;
  p.fade_probability = 0.3;
  p.fade_depth_error_rate = 1.0;  // faded <=> corrupted, so errors == duty

  std::uint64_t errors = 0;
  std::uint64_t total = 0;
  for (std::uint64_t s = 0; s < 500; ++s) {
    LeoFadingChannel ch(p);  // fresh channel: each stream is a cold start
    Rng rng(1000 + s);
    std::vector<std::uint8_t> data(2048, 0);  // 32 samples << coherence
    errors += ch.apply_range(ch.position(), data, rng);
    total += data.size();
  }
  const double duty = static_cast<double>(errors) / static_cast<double>(total);
  // The broken cold start measured ~0.01-0.03 here; the stationary start
  // concentrates near the configured 0.3.
  EXPECT_NEAR(duty, 0.3, 0.06);
}

TEST(Leo, CoherenceProducesLongFades) {
  // With a 2 ms coherence time at 50 Gsym/s, fades span millions of
  // symbols — the paper's motivation for huge interleavers.
  LeoChannelParams p;  // defaults: 2 ms, 50 Gsym/s
  LeoFadingChannel ch(p);
  EXPECT_GT(ch.rho(), 0.99) << "power process must be strongly correlated";
  Rng rng(17);
  std::vector<std::uint8_t> data(4'000'000, 0);
  ch.apply_range(ch.position(), data, rng);
  // Longest error run should be large when any fade occurs.
  std::uint64_t longest = 0, cur = 0;
  for (auto s : data) {
    cur = s != 0 ? cur + 1 : 0;
    longest = std::max(longest, cur);
  }
  if (longest > 0) {
    EXPECT_GT(longest, 10000u);
  }
}

TEST(Leo, SplitApplyMatchesWholeStream) {
  // The power process is continuous in symbol time: applying the channel
  // to a stream in arbitrary pieces must yield the identical corruption
  // pattern as one call (the streaming pipeline chunks the wire order
  // and relies on this).
  LeoChannelParams p;
  p.fade_probability = 0.1;
  p.fade_depth_error_rate = 0.8;
  p.symbols_per_sample = 300;  // deliberately no divisor relationship
  p.coherence_time_s = 2e-7;
  constexpr std::size_t kTotal = 200'000;

  LeoFadingChannel whole(p);
  Rng rng_whole(9);
  std::vector<std::uint8_t> data_whole(kTotal, 0);
  const auto errors_whole = whole.apply_range(whole.position(), data_whole, rng_whole);

  LeoFadingChannel split(p);
  Rng rng_split(9);
  std::vector<std::uint8_t> data_split;
  std::uint64_t errors_split = 0;
  Rng chunk_rng(3);
  for (std::size_t pos = 0; pos < kTotal;) {
    const std::size_t len =
        std::min(kTotal - pos, static_cast<std::size_t>(1 + chunk_rng.uniform(7777)));
    std::vector<std::uint8_t> chunk(len, 0);
    errors_split += split.apply_range(split.position(), chunk, rng_split);
    data_split.insert(data_split.end(), chunk.begin(), chunk.end());
    pos += len;
  }

  EXPECT_GT(errors_whole, 0u);
  EXPECT_EQ(errors_whole, errors_split);
  EXPECT_EQ(data_whole, data_split);
}

TEST(Leo, RejectsBadParams) {
  LeoChannelParams p;
  p.fade_probability = 0.0;
  EXPECT_THROW(LeoFadingChannel{p}, std::invalid_argument);
  p = LeoChannelParams{};
  p.symbols_per_sample = 0;
  EXPECT_THROW(LeoFadingChannel{p}, std::invalid_argument);
  p = LeoChannelParams{};
  p.coherence_time_s = 0;
  EXPECT_THROW(LeoFadingChannel{p}, std::invalid_argument);
}

}  // namespace
}  // namespace tbi::channel
