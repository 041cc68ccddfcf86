/// Distribution gate for the channels' samplers. The BSC and
/// Gilbert-Elliott models draw the distance to their next event instead
/// of one Bernoulli per symbol, and LEO draws its power samples by
/// ziggurat instead of Marsaglia's polar method, so they emit different
/// events than the oracles in per_symbol_channels.hpp for the same seed.
/// These tests check, over many seeds, that both draw the same
/// distribution: error gaps and counts (BSC), good sojourns, fade
/// lengths, mean burst length and duty cycle (Gilbert-Elliott), fade
/// lengths and duty cycle (LEO), and the FER pipeline's word and frame
/// errors on a small grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "channel/bsc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/leo.hpp"
#include "per_symbol_channels.hpp"
#include "sim/pipeline.hpp"
#include "sim/sweep.hpp"
#include "source/source.hpp"

namespace tbi::channel {
namespace {

using Factory = std::function<std::unique_ptr<Channel>()>;

/// Wire positions of every error in [0, total) of a fresh channel.
std::vector<std::uint64_t> error_positions(const Factory& make, std::uint64_t total,
                                           std::uint64_t seed) {
  auto ch = make();
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  ch->events(0, total, rng, [&out](const Corruption& e) { out.push_back(e.wire_pos); });
  return out;
}

/// Counts over bins [edges[i-1], edges[i]), the first from 0 and the last
/// open-ended.
struct Histogram {
  std::vector<std::uint64_t> edges;
  std::vector<double> counts;

  explicit Histogram(std::vector<std::uint64_t> e)
      : edges(std::move(e)), counts(edges.size() + 1, 0.0) {}

  void add(std::uint64_t x) {
    counts[std::upper_bound(edges.begin(), edges.end(), x) - edges.begin()] += 1;
  }
};

/// Bins of equal probability under Geometric(p), failures before success:
/// P(G < x) = 1 - (1 - p)^x.
std::vector<std::uint64_t> geometric_edges(double p, int bins) {
  std::vector<std::uint64_t> edges;
  for (int j = 1; j < bins; ++j) {
    const auto e = static_cast<std::uint64_t>(
        std::ceil(std::log1p(-static_cast<double>(j) / bins) / std::log1p(-p)));
    if (edges.empty() || e > edges.back()) edges.push_back(e);
  }
  return edges;
}

/// Bins of equal mass in a sample (for distributions with no closed form).
std::vector<std::uint64_t> quantile_edges(std::vector<std::uint64_t> sample, int bins) {
  std::sort(sample.begin(), sample.end());
  std::vector<std::uint64_t> edges;
  for (int j = 1; j < bins; ++j) {
    const std::uint64_t e = sample[sample.size() * j / bins];
    if (e > 0 && (edges.empty() || e > edges.back())) edges.push_back(e);
  }
  return edges;
}

/// Two-sample chi-square statistic for histograms over the same bins with
/// unequal totals (Numerical Recipes, 3rd ed., §14.3).
double two_sample_chi2(const Histogram& a, const Histogram& b) {
  const double na = std::accumulate(a.counts.begin(), a.counts.end(), 0.0);
  const double nb = std::accumulate(b.counts.begin(), b.counts.end(), 0.0);
  double chi2 = 0;
  for (std::size_t i = 0; i < a.counts.size(); ++i) {
    const double sum = a.counts[i] + b.counts[i];
    if (sum == 0) continue;
    const double d = std::sqrt(nb / na) * a.counts[i] - std::sqrt(na / nb) * b.counts[i];
    chi2 += d * d / sum;
  }
  return chi2;
}

/// Pass bound of a chi-square statistic over \p bins bins: its mean plus
/// six standard deviations (df = bins, as the totals differ).
double chi2_bound(std::size_t bins) {
  const double df = static_cast<double>(bins);
  return df + 6.0 * std::sqrt(2.0 * df);
}

double mean(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  const double m = mean(v);
  double s = 0;
  for (double x : v) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size() - 1);
}

/// |mean(a) - mean(b)| in standard errors, each seed one independent
/// replicate: the binomial interval of a count, widened by whatever
/// clustering (fades) the per-seed spread shows. Zero when neither
/// sample varies and both agree.
double seed_z(const std::vector<double>& a, const std::vector<double>& b) {
  const double se = std::sqrt(variance(a) / static_cast<double>(a.size()) +
                              variance(b) / static_cast<double>(b.size()));
  const double d = std::abs(mean(a) - mean(b));
  return d == 0 ? 0.0 : d / se;
}

constexpr double kMaxZ = 5.0;

TEST(GapSampling, BscGapsAndErrorCountsMatchPerSymbolOracle) {
  struct Case {
    double p;
    std::uint64_t symbols;
  };
  for (const Case c : {Case{2e-3, 400'000}, Case{0.05, 20'000}}) {
    const Factory gap = [p = c.p] { return std::make_unique<SymmetricChannel>(p, 8); };
    const Factory oracle = [p = c.p] {
      return std::make_unique<PerSymbolSymmetricChannel>(p, 8);
    };
    Histogram hist_gap(geometric_edges(c.p, 16)), hist_oracle(geometric_edges(c.p, 16));
    std::vector<double> errors_gap, errors_oracle;
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
      for (const bool is_oracle : {false, true}) {
        const auto pos = error_positions(is_oracle ? oracle : gap, c.symbols, seed);
        Histogram& h = is_oracle ? hist_oracle : hist_gap;
        std::uint64_t next = 0;  // the first gap runs from position 0
        for (const std::uint64_t e : pos) {
          ASSERT_GE(e, next);
          h.add(e - next);
          next = e + 1;
        }
        (is_oracle ? errors_oracle : errors_gap).push_back(static_cast<double>(pos.size()));
      }
    }
    EXPECT_LT(two_sample_chi2(hist_gap, hist_oracle), chi2_bound(hist_gap.counts.size()))
        << c.p;
    EXPECT_LT(seed_z(errors_gap, errors_oracle), kMaxZ) << c.p;
    // Both within six binomial standard errors of the expected count.
    const double n = 48.0 * static_cast<double>(c.symbols);
    for (const auto* errors : {&errors_gap, &errors_oracle}) {
      EXPECT_NEAR(mean(*errors) * 48.0, n * c.p, 6.0 * std::sqrt(n * c.p * (1 - c.p)))
          << c.p;
    }
  }
}

/// Good sojourns and fades of a Gilbert-Elliott stream with error_bad = 1
/// and error_good = 0, where a symbol is corrupted iff the chain is bad.
struct ChainRuns {
  Histogram sojourns;  ///< good-run length - 1 ~ Geometric(p_gb)
  Histogram fades;     ///< bad-run length - 1 ~ Geometric(p_bg)
  std::vector<double> bad_fraction;  ///< per seed
  std::vector<double> fade_length;   ///< per seed: mean bad-run length

  explicit ChainRuns(const GilbertElliottParams& p)
      : sojourns(geometric_edges(p.p_gb, 16)), fades(geometric_edges(p.p_bg, 16)) {}

  void add_stream(const std::vector<std::uint64_t>& bad, std::uint64_t symbols) {
    std::uint64_t fade_symbols = 0, fades_seen = 0;
    std::size_t i = 0;
    while (i < bad.size()) {
      std::size_t j = i;
      while (j + 1 < bad.size() && bad[j + 1] == bad[j] + 1) ++j;
      const std::uint64_t length = bad[j] - bad[i] + 1;
      // A run cut by the stream end has no known length; the good run
      // before the first fade starts with the stream, not on a symbol
      // that left a fade, and is one symbol shorter in law.
      if (bad[j] + 1 < symbols) {
        fades.add(length - 1);
        fade_symbols += length;
        ++fades_seen;
      }
      if (i > 0) sojourns.add(bad[i] - bad[i - 1] - 2);
      i = j + 1;
    }
    bad_fraction.push_back(static_cast<double>(bad.size()) / static_cast<double>(symbols));
    fade_length.push_back(static_cast<double>(fade_symbols) /
                          static_cast<double>(std::max<std::uint64_t>(fades_seen, 1)));
  }
};

TEST(GapSampling, GilbertElliottSojournsFadesAndDutyMatchPerSymbolOracle) {
  struct Case {
    double mean_burst;
    double bad_fraction;
    std::uint64_t symbols;
  };
  // Short runs, where an off-by-one in a sojourn or a fade would show, and
  // the bench's fade length at a 5% duty cycle.
  for (const Case c : {Case{8, 0.3, 40'000}, Case{300, 0.05, 600'000}}) {
    const auto params = GilbertElliottParams::from_burst_profile(c.mean_burst,
                                                                 c.bad_fraction, 1.0, 8);
    const Factory gap = [params] { return std::make_unique<GilbertElliottChannel>(params); };
    const Factory oracle = [params] {
      return std::make_unique<PerSymbolGilbertElliottChannel>(params);
    };
    ChainRuns runs_gap(params), runs_oracle(params);
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
      runs_gap.add_stream(error_positions(gap, c.symbols, seed), c.symbols);
      runs_oracle.add_stream(error_positions(oracle, c.symbols, seed), c.symbols);
    }
    EXPECT_LT(two_sample_chi2(runs_gap.sojourns, runs_oracle.sojourns),
              chi2_bound(runs_gap.sojourns.counts.size()))
        << c.mean_burst;
    EXPECT_LT(two_sample_chi2(runs_gap.fades, runs_oracle.fades),
              chi2_bound(runs_gap.fades.counts.size()))
        << c.mean_burst;
    EXPECT_LT(seed_z(runs_gap.fade_length, runs_oracle.fade_length), kMaxZ)
        << c.mean_burst;
    EXPECT_LT(seed_z(runs_gap.bad_fraction, runs_oracle.bad_fraction), kMaxZ)
        << c.mean_burst;
    // And both sit on the model's own mean burst and stationary duty.
    const GilbertElliottChannel model(params);
    for (const ChainRuns* r : {&runs_gap, &runs_oracle}) {
      const double se_len = std::sqrt(variance(r->fade_length) / 48.0);
      EXPECT_NEAR(mean(r->fade_length), c.mean_burst, 6.0 * se_len) << c.mean_burst;
      const double se_duty = std::sqrt(variance(r->bad_fraction) / 48.0);
      EXPECT_NEAR(mean(r->bad_fraction), model.stationary_bad(), 6.0 * se_duty)
          << c.mean_burst;
    }
  }
}

TEST(GapSampling, NoisyGilbertElliottErrorGapsMatchPerSymbolOracle) {
  // error_good > 0: each stop of a good sojourn is either the fade's
  // start or a good-state error, and fades are not fully corrupted, so
  // only the error stream itself is observable. Good errors every ten
  // symbols or so make a one-symbol slip in their gaps visible.
  auto params = GilbertElliottParams::from_burst_profile(20, 0.2, 0.6, 8);
  params.error_good = 0.1;
  constexpr std::uint64_t kSymbols = 30'000;
  const Factory gap = [params] { return std::make_unique<GilbertElliottChannel>(params); };
  const Factory oracle = [params] {
    return std::make_unique<PerSymbolGilbertElliottChannel>(params);
  };
  std::vector<std::vector<std::uint64_t>> gaps(2);
  std::vector<double> errors[2];
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    for (int o = 0; o < 2; ++o) {
      const auto pos = error_positions(o ? oracle : gap, kSymbols, seed);
      for (std::size_t i = 1; i < pos.size(); ++i) gaps[o].push_back(pos[i] - pos[i - 1] - 1);
      errors[o].push_back(static_cast<double>(pos.size()));
    }
  }
  const auto edges = quantile_edges(gaps[1], 20);
  Histogram hist_gap(edges), hist_oracle(edges);
  for (const std::uint64_t g : gaps[0]) hist_gap.add(g);
  for (const std::uint64_t g : gaps[1]) hist_oracle.add(g);
  EXPECT_LT(two_sample_chi2(hist_gap, hist_oracle), chi2_bound(hist_gap.counts.size()));
  EXPECT_LT(seed_z(errors[0], errors[1]), kMaxZ);
}

TEST(GapSampling, LeoFadesAndDutyMatchPolarOracle) {
  // fade_depth_error_rate = 1 corrupts every faded symbol, so the fades
  // are the error runs: whole power-sample windows, counted here in
  // samples. A run cut by the stream end has no known length.
  struct Case {
    double fade_probability;
    double samples_per_coherence;
    unsigned symbols_per_sample;
    std::uint64_t symbols;
  };
  // Short fades at a 5% duty cycle, and the bench's geometry (0.4% duty,
  // 18-symbol windows, a 300-symbol coherence), where the fade threshold
  // sits 2.65 standard deviations down.
  for (const Case c : {Case{0.05, 10, 8, 400'000}, Case{0.004, 300.0 / 18, 18, 1'200'000}}) {
    LeoChannelParams params;
    params.symbol_rate_hz = 1.0;
    params.coherence_time_s = c.samples_per_coherence * c.symbols_per_sample;
    params.fade_probability = c.fade_probability;
    params.fade_depth_error_rate = 1.0;
    params.symbol_bits = 8;
    params.symbols_per_sample = c.symbols_per_sample;
    const Factory ziggurat = [params] { return std::make_unique<LeoFadingChannel>(params); };
    const Factory oracle = [params] { return std::make_unique<PolarLeoChannel>(params); };
    std::vector<std::uint64_t> fades[2];
    std::vector<double> duty[2], fade_length[2];
    for (std::uint64_t seed = 1; seed <= 48; ++seed) {
      for (int o = 0; o < 2; ++o) {
        const auto pos = error_positions(o ? oracle : ziggurat, c.symbols, seed);
        std::uint64_t fade_samples = 0, fades_seen = 0;
        for (std::size_t i = 0; i < pos.size();) {
          std::size_t j = i;
          while (j + 1 < pos.size() && pos[j + 1] == pos[j] + 1) ++j;
          if (pos[j] + 1 < c.symbols) {
            const std::uint64_t samples = (pos[j] - pos[i] + 1) / c.symbols_per_sample;
            fades[o].push_back(samples);
            fade_samples += samples;
            ++fades_seen;
          }
          i = j + 1;
        }
        duty[o].push_back(static_cast<double>(pos.size()) / static_cast<double>(c.symbols));
        fade_length[o].push_back(static_cast<double>(fade_samples) /
                                 static_cast<double>(std::max<std::uint64_t>(fades_seen, 1)));
      }
    }
    ASSERT_GT(fades[1].size(), 500u) << c.fade_probability;
    const auto edges = quantile_edges(fades[1], 16);
    Histogram hist_ziggurat(edges), hist_oracle(edges);
    for (const std::uint64_t f : fades[0]) hist_ziggurat.add(f);
    for (const std::uint64_t f : fades[1]) hist_oracle.add(f);
    EXPECT_LT(two_sample_chi2(hist_ziggurat, hist_oracle),
              chi2_bound(hist_ziggurat.counts.size()))
        << c.fade_probability;
    EXPECT_LT(seed_z(duty[0], duty[1]), kMaxZ) << c.fade_probability;
    EXPECT_LT(seed_z(fade_length[0], fade_length[1]), kMaxZ) << c.fade_probability;
    // And both sit on the model's stationary duty cycle.
    for (int o = 0; o < 2; ++o) {
      const double se = std::sqrt(variance(duty[o]) / 48.0);
      EXPECT_NEAR(mean(duty[o]), c.fade_probability, 6.0 * se) << c.fade_probability;
    }
  }
}

TEST(GapSampling, PipelineWordAndFrameErrorsMatchPerSymbolOracle) {
  // The FER pipeline on a small grid: the production channels against the
  // oracles, whose events reach the same frame loop through an
  // ErrorSource on the channel stream's seed. Word and frame error counts
  // must agree inside their binomial intervals (widened by the per-seed
  // spread).
  sim::PipelineConfig c;
  c.rs_k = 223;
  c.frames = 10;
  c.run_dram = false;
  c.error_probability = 0.05;  // a few percent of full rows fail at t = 16
  const std::uint64_t wire = 10 * 32'640;  // frames x T(255)
  for (const std::string channel : {"bsc", "gilbert-elliott", "leo"}) {
    sim::PipelineConfig base = c;
    base.channel = channel;
    if (channel == "leo") {
      // LEO's AR(1) fades ramp in and out, so at Gilbert-Elliott's fade
      // profile the triangular cell loses no word. Longer, more frequent
      // fades make both cells lose some, and neither lose every frame.
      base.mean_burst_symbols = 2000;
      base.fade_fraction = 0.05;
    }
    const Factory oracle = [base]() -> std::unique_ptr<Channel> {
      if (base.channel == "bsc") {
        return std::make_unique<PerSymbolSymmetricChannel>(base.error_probability, 8);
      }
      if (base.channel == "leo") {
        const auto model = sim::make_channel(base);
        return std::make_unique<PolarLeoChannel>(
            static_cast<const LeoFadingChannel&>(*model).params());
      }
      return std::make_unique<PerSymbolGilbertElliottChannel>(
          GilbertElliottParams::from_burst_profile(base.mean_burst_symbols,
                                                   base.fade_fraction,
                                                   base.error_rate_bad, 8));
    };
    // Per interleaver: word and frame errors per seed, production [0]
    // and oracle [1].
    const std::vector<std::string> interleavers = {"none", "triangular"};
    std::vector<std::vector<double>> words[2], frames[2];
    for (int o = 0; o < 2; ++o) {
      words[o].resize(interleavers.size());
      frames[o].resize(interleavers.size());
    }
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
      for (std::size_t i = 0; i < interleavers.size(); ++i) {
        sim::PipelineConfig live = base;
        live.interleaver = interleavers[i];
        live.seed = seed;
        source::ErrorSource reference(oracle(), sim::job_seed(seed, 1));
        const auto production = sim::run_pipeline(live);
        const auto replayed = sim::run_frames(live, &reference);
        ASSERT_EQ(production.channel_symbols, wire);
        words[0][i].push_back(static_cast<double>(production.word_errors));
        words[1][i].push_back(static_cast<double>(replayed.word_errors));
        frames[0][i].push_back(static_cast<double>(production.frame_errors));
        frames[1][i].push_back(static_cast<double>(replayed.frame_errors));
      }
    }
    for (std::size_t i = 0; i < interleavers.size(); ++i) {
      const std::string cell = channel + "/" + interleavers[i];
      ASSERT_GT(mean(words[1][i]), 0.0) << cell << ": the cell must lose words";
      EXPECT_LT(seed_z(words[0][i], words[1][i]), kMaxZ) << cell;
      EXPECT_LT(seed_z(frames[0][i], frames[1][i]), kMaxZ) << cell;
    }
  }
}

}  // namespace
}  // namespace tbi::channel
