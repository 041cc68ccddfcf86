/// Counter-based random access (Channel::apply_range / skip): chunking a
/// stream through apply_range at arbitrary boundaries — including one
/// symbol at a time — must be byte-identical to a single apply_range()
/// over the whole stream, for every channel model. The FER
/// pipeline's forward walk (source::ErrorSource) builds on it. The gap-sampled
/// models carry a pending event (BSC, Gilbert-Elliott) or a sample phase
/// (LEO) across calls, so the boundaries that matter most are the ones
/// on or next to an event or a fade edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "channel/bsc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/leo.hpp"
#include "source/source.hpp"

namespace tbi::channel {
namespace {

std::unique_ptr<Channel> make_named(const std::string& which) {
  if (which == "bsc") return std::make_unique<SymmetricChannel>(0.01, 8);
  if (which == "ge") {
    const auto p = GilbertElliottParams::from_burst_profile(300, 0.05, 0.95, 8);
    return std::make_unique<GilbertElliottChannel>(p);
  }
  if (which == "ge-noisy") {
    // Good-state errors compete with the sojourn's end for each stop.
    auto p = GilbertElliottParams::from_burst_profile(300, 0.05, 0.6, 8);
    p.error_good = 0.002;
    return std::make_unique<GilbertElliottChannel>(p);
  }
  LeoChannelParams p;
  // Aggressive fading so even the 4k-symbol single-step test crosses
  // fades: short coherence decorrelates the power samples quickly.
  p.fade_probability = 0.2;
  p.fade_depth_error_rate = 0.9;
  p.symbols_per_sample = 300;
  p.coherence_time_s = 2e-8;
  return std::make_unique<LeoFadingChannel>(p);
}

class ChannelRanges : public ::testing::TestWithParam<std::string> {};

TEST_P(ChannelRanges, ChunkedApplyRangeMatchesSequentialApply) {
  constexpr std::size_t kTotal = 50'000;

  auto whole = make_named(GetParam());
  Rng rng_whole(42);
  std::vector<std::uint8_t> data_whole(kTotal, 0);
  const auto errors_whole = whole->apply_range(whole->position(), data_whole, rng_whole);
  ASSERT_GT(errors_whole, 0u);

  // Random chunk boundaries, no divisor relationship with any internal
  // period (GE burst length, LEO sample window).
  auto chunked = make_named(GetParam());
  Rng rng_chunked(42);
  std::vector<std::uint8_t> data_chunked(kTotal, 0);
  std::uint64_t errors_chunked = 0;
  Rng len_rng(7);
  for (std::size_t pos = 0; pos < kTotal;) {
    const std::size_t len = std::min(
        kTotal - pos, static_cast<std::size_t>(1 + len_rng.uniform(997)));
    errors_chunked += chunked->apply_range(
        pos, std::span<std::uint8_t>(data_chunked.data() + pos, len),
        rng_chunked);
    pos += len;
  }
  EXPECT_EQ(errors_chunked, errors_whole);
  EXPECT_EQ(data_chunked, data_whole);
}

TEST_P(ChannelRanges, SingleSymbolChunksMatchSequentialApply) {
  // The degenerate chunk size: one apply_range call per symbol.
  constexpr std::size_t kTotal = 4'000;

  auto whole = make_named(GetParam());
  Rng rng_whole(9);
  std::vector<std::uint8_t> data_whole(kTotal, 0);
  const auto errors_whole = whole->apply_range(whole->position(), data_whole, rng_whole);

  auto stepped = make_named(GetParam());
  Rng rng_stepped(9);
  std::vector<std::uint8_t> data_stepped(kTotal, 0);
  std::uint64_t errors_stepped = 0;
  for (std::size_t pos = 0; pos < kTotal; ++pos) {
    errors_stepped += stepped->apply_range(
        pos, std::span<std::uint8_t>(data_stepped.data() + pos, 1), rng_stepped);
  }
  EXPECT_EQ(errors_stepped, errors_whole);
  EXPECT_EQ(data_stepped, data_whole);
}

TEST_P(ChannelRanges, SparseRangesMatchSequentialPattern) {
  // Reading disjoint windows with gaps: the skipped spans must consume
  // exactly the draws a full walk would, so the windows land on the same
  // corruption pattern one sequential pass produces.
  constexpr std::size_t kTotal = 60'000;

  auto whole = make_named(GetParam());
  Rng rng_whole(31);
  std::vector<std::uint8_t> reference(kTotal, 0);
  whole->apply_range(whole->position(), reference, rng_whole);

  auto sparse = make_named(GetParam());
  Rng rng_sparse(31);
  Rng len_rng(13);
  std::size_t pos = 0;
  bool compared_nonzero = false;
  while (pos < kTotal) {
    pos += len_rng.uniform(3000);  // gap, never materialized
    if (pos >= kTotal) break;
    const std::size_t len = std::min(
        kTotal - pos, static_cast<std::size_t>(1 + len_rng.uniform(2000)));
    std::vector<std::uint8_t> window(len, 0);
    sparse->apply_range(pos, window, rng_sparse);
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(window[i], reference[pos + i]) << "wire position " << pos + i;
      compared_nonzero |= reference[pos + i] != 0;
    }
    pos += len;
  }
  EXPECT_TRUE(compared_nonzero) << "test never crossed a corrupted symbol";
}

TEST_P(ChannelRanges, BackwardStartThrows) {
  auto ch = make_named(GetParam());
  Rng rng(1);
  std::vector<std::uint8_t> data(100, 0);
  ch->apply_range(500, data, rng);
  EXPECT_EQ(ch->position(), 600u);
  EXPECT_THROW(ch->apply_range(599, data, rng), std::logic_error);
}

using Factory = std::function<std::unique_ptr<Channel>()>;

Factory named(const std::string& which) {
  return [which] { return make_named(which); };
}

/// The whole stream in one apply_range(): the reference every split must
/// match.
std::vector<std::uint8_t> sequential(const Factory& make, std::size_t total,
                                     std::uint64_t seed) {
  auto ch = make();
  Rng rng(seed);
  std::vector<std::uint8_t> data(total, 0);
  ch->apply_range(ch->position(), data, rng);
  return data;
}

/// Walk [0, total) through apply_range over the given boundaries, which
/// may repeat (zero-length ranges) but never decrease.
std::vector<std::uint8_t> split_at(const Factory& make, std::size_t total,
                                   std::uint64_t seed,
                                   const std::vector<std::size_t>& cuts) {
  auto ch = make();
  Rng rng(seed);
  std::vector<std::uint8_t> data(total, 0);
  std::size_t pos = 0;
  for (std::size_t cut : cuts) {
    cut = std::min(cut, total);
    ch->apply_range(pos, std::span<std::uint8_t>(data.data() + pos, cut - pos), rng);
    pos = cut;
  }
  ch->apply_range(pos, std::span<std::uint8_t>(data.data() + pos, total - pos), rng);
  return data;
}

TEST_P(ChannelRanges, RangesEndingOnAnEventMatchSequentialApply) {
  // Every range ends exactly on a corrupted symbol (the event is still
  // pending when the range closes) or just past it (the next gap has
  // just been drawn).
  constexpr std::size_t kTotal = 40'000;
  const auto reference = sequential(named(GetParam()), kTotal, 5);
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < kTotal; ++i) {
    if (reference[i] != 0) cuts.push_back(cuts.size() % 2 == 0 ? i : i + 1);
  }
  ASSERT_GT(cuts.size(), 20u);
  EXPECT_EQ(split_at(named(GetParam()), kTotal, 5, cuts), reference);
}

TEST_P(ChannelRanges, ZeroLengthRangesChangeNothing) {
  // Empty ranges at the stream start (before any gap is drawn), on
  // events, and ahead of the walk (a skip to the range start, then
  // nothing) leave the pattern of one pass intact.
  constexpr std::size_t kTotal = 40'000;
  const auto reference = sequential(named(GetParam()), kTotal, 8);
  std::vector<std::size_t> cuts = {0, 0};
  Rng len_rng(21);
  for (std::size_t i = 0; i < kTotal; ++i) {
    if (reference[i] != 0 && len_rng.uniform(4) == 0) {
      cuts.insert(cuts.end(), {i, i, i + 1, i + 1});
    }
  }
  EXPECT_EQ(split_at(named(GetParam()), kTotal, 8, cuts), reference);

  auto ch = make_named(GetParam());
  Rng rng(8);
  std::vector<std::uint8_t> none;
  EXPECT_EQ(ch->apply_range(0, none, rng), 0u);
  EXPECT_EQ(ch->apply_range(1000, none, rng), 0u);
  EXPECT_EQ(ch->position(), 1000u);
  std::vector<std::uint8_t> rest(kTotal - 1000, 0);
  ch->apply_range(1000, rest, rng);
  EXPECT_TRUE(std::equal(rest.begin(), rest.end(), reference.begin() + 1000));
}

TEST_P(ChannelRanges, OneSymbolRangesAcrossFadeEdgesMatchSequentialApply) {
  // One-symbol ranges through every edge of the error pattern (a fade
  // starting or ending, for the bursty models), bigger ranges between.
  constexpr std::size_t kTotal = 60'000;
  const auto reference = sequential(named(GetParam()), kTotal, 17);
  std::vector<std::size_t> cuts;
  std::size_t edges = 0;
  for (std::size_t i = 1; i < kTotal; ++i) {
    if ((reference[i] != 0) == (reference[i - 1] != 0)) continue;
    ++edges;
    const std::size_t from = std::max(i >= 4 ? i - 4 : 0, cuts.empty() ? 0 : cuts.back());
    for (std::size_t c = from; c <= std::min(i + 4, kTotal); ++c) cuts.push_back(c);
  }
  ASSERT_GT(edges, 10u);
  EXPECT_EQ(split_at(named(GetParam()), kTotal, 17, cuts), reference);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ChannelRanges,
                         ::testing::Values("bsc", "ge", "ge-noisy", "leo"));

// ---------------------------------------------------------------------------
// source::ErrorSource: the pipeline's forward walk over one channel
// ---------------------------------------------------------------------------

/// The events a zeroed buffer's corruption stands for, in wire order.
std::vector<Corruption> events_of(const std::vector<std::uint8_t>& wire) {
  std::vector<Corruption> out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (wire[i] != 0) out.push_back({i, wire[i]});
  }
  return out;
}

/// Append \p src's events over [start, start + span) to \p out.
std::uint64_t collect(source::ErrorSource& src, std::uint64_t start, std::uint64_t span,
                      std::vector<Corruption>& out) {
  return src.events(start, span, [&out](const Corruption& e) { out.push_back(e); });
}

TEST(ErrorSource, CorruptMatchesRawChannelApply) {
  constexpr std::size_t kTotal = 60'000;
  const auto expected = sequential(named("ge"), kTotal, 5);

  source::ErrorSource src(make_named("ge"), 5);
  std::vector<std::uint8_t> wire(kTotal, 0);
  // Frame-sized forward windows.
  for (std::size_t pos = 0; pos < kTotal; pos += 7000) {
    const std::size_t len = std::min<std::size_t>(7000, kTotal - pos);
    src.corrupt(pos, std::span<std::uint8_t>(wire.data() + pos, len));
  }
  EXPECT_EQ(wire, expected);
}

TEST(ErrorSource, EventsMatchCorruptPattern) {
  // Splitting a range into sub-ranges, down to one symbol each, must emit
  // exactly the events of one call, which must be the corruption that one
  // apply_range() writes into a zeroed buffer. Every channel model; the
  // random split lengths bear no relation to the LEO sample window or the
  // GE burst length.
  constexpr std::size_t kTotal = 40'000;
  for (const std::string name : {"bsc", "ge", "leo"}) {
    const auto expected = events_of(sequential(named(name), kTotal, 11));
    ASSERT_FALSE(expected.empty()) << name;

    source::ErrorSource whole(make_named(name), 11);
    std::vector<Corruption> one_call;
    EXPECT_EQ(collect(whole, 0, kTotal, one_call), expected.size()) << name;
    EXPECT_EQ(one_call, expected) << name;

    source::ErrorSource split(make_named(name), 11);
    std::vector<Corruption> random_split;
    Rng len_rng(3);
    for (std::size_t pos = 0; pos < kTotal;) {
      const std::size_t len = std::min(
          kTotal - pos, static_cast<std::size_t>(1 + len_rng.uniform(997)));
      collect(split, pos, len, random_split);
      pos += len;
    }
    EXPECT_EQ(random_split, expected) << name;

    source::ErrorSource stepped(make_named(name), 11);
    std::vector<Corruption> single_symbols;
    for (std::size_t pos = 0; pos < kTotal; ++pos) {
      collect(stepped, pos, 1, single_symbols);
    }
    EXPECT_EQ(single_symbols, expected) << name;
  }
}

TEST(ErrorSource, RangeBehindTheWalkThrows) {
  // The source only runs forward; there is no rewind.
  source::ErrorSource src(make_named("bsc"), 3);
  std::vector<std::uint8_t> wire(100, 0);
  src.corrupt(1000, wire);
  EXPECT_THROW(src.corrupt(1099, wire), std::logic_error);
  EXPECT_THROW(src.events(0, 1, [](const Corruption&) {}), std::logic_error);
}

TEST(ChannelRangesBsc, CertainAndImpossibleErrorsSplitLikeOnePass) {
  // p = 0 never draws a gap that ends, and p = 1 draws zero-length gaps
  // only: any split of either walk emits exactly the events of one pass.
  constexpr std::size_t kTotal = 5'000;
  Rng len_rng(4);
  std::vector<std::size_t> cuts;
  for (std::size_t pos = 0; pos < kTotal; pos += len_rng.uniform(40)) {
    cuts.push_back(pos);
  }
  for (const double p : {0.0, 1.0}) {
    const Factory make = [p] { return std::make_unique<SymmetricChannel>(p, 8); };
    const auto reference = sequential(make, kTotal, 6);
    const auto clean =
        static_cast<std::size_t>(std::count(reference.begin(), reference.end(), 0));
    EXPECT_EQ(clean, p == 0.0 ? kTotal : 0u) << p;
    EXPECT_EQ(split_at(make, kTotal, 6, cuts), reference) << p;
  }
  // Nothing to draw at p = 0: the generator is untouched.
  SymmetricChannel never(0.0, 8);
  Rng rng(6);
  std::vector<std::uint8_t> data(kTotal, 0);
  EXPECT_EQ(never.apply_range(never.position(), data, rng), 0u);
  EXPECT_EQ(rng.next_u64(), Rng(6).next_u64());
}

TEST(ChannelSkipAhead, LeoFixedSeedGolden) {
  // Deterministic regression pin: skipping 1M symbols into a fixed-seed
  // LEO channel and corrupting the next window must reproduce the pattern
  // of a sequential walk over the same prefix. Guards the O(1)
  // un-faded-sample fast path in LeoFadingChannel against draw-order
  // drift. Fades are seed luck (the AR(1) samples are correlated), so
  // scan a fixed seed range for the first one whose window actually fades
  // — the scan itself is deterministic.
  LeoChannelParams p;
  p.fade_probability = 0.1;
  p.fade_depth_error_rate = 0.9;
  p.symbols_per_sample = 300;
  p.coherence_time_s = 2e-7;
  constexpr std::uint64_t kSkip = 1'000'000;
  constexpr std::size_t kWindow = 16'384;

  bool faded_window_found = false;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    // Reference from a sequential walk over the same wire prefix.
    LeoFadingChannel seq(p);
    Rng rng_seq(seed);
    std::vector<std::uint8_t> prefix(kSkip, 0);
    seq.apply_range(seq.position(), prefix, rng_seq);
    std::vector<std::uint8_t> expected(kWindow, 0);
    const auto expected_errors = seq.apply_range(seq.position(), expected, rng_seq);

    LeoFadingChannel skip(p);
    Rng rng_skip(seed);
    std::vector<std::uint8_t> window(kWindow, 0);
    const auto errors = skip.apply_range(kSkip, window, rng_skip);

    ASSERT_EQ(errors, expected_errors) << "seed " << seed;
    ASSERT_EQ(window, expected) << "seed " << seed;
    if (errors > 0) {
      faded_window_found = true;
      break;
    }
  }
  EXPECT_TRUE(faded_window_found)
      << "no seed in range fades the window — weaken the fade params";
}

}  // namespace
}  // namespace tbi::channel
