/// Source layer (src/source/): ChannelSource equivalence with raw
/// channels, random access via rewind, multi-link composition, and the
/// burst-trace record/replay format.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "channel/bsc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/leo.hpp"
#include "source/source.hpp"
#include "source/trace.hpp"

namespace tbi::source {
namespace {

ChannelFactory ge_factory() {
  return [] {
    const auto p =
        channel::GilbertElliottParams::from_burst_profile(300, 0.05, 0.95, 8);
    return std::make_unique<channel::GilbertElliottChannel>(p);
  };
}

ChannelFactory bsc_factory() {
  return [] { return std::make_unique<channel::SymmetricChannel>(0.01, 8); };
}

ChannelFactory leo_factory() {
  return [] {
    channel::LeoChannelParams p;
    p.fade_probability = 0.05;
    p.fade_depth_error_rate = 0.9;
    p.symbols_per_sample = 300;
    p.coherence_time_s = 2e-7;
    return std::make_unique<channel::LeoFadingChannel>(p);
  };
}

/// Reference corruption pattern: the raw channel walked sequentially.
std::vector<std::uint8_t> reference_wire(const ChannelFactory& factory,
                                         std::uint64_t seed, std::size_t total) {
  auto ch = factory();
  Rng rng(seed);
  std::vector<std::uint8_t> wire(total, 0);
  ch->apply(wire, rng);
  return wire;
}

std::vector<Corruption> events_of(const std::vector<std::uint8_t>& wire,
                                  std::uint64_t base = 0) {
  std::vector<Corruption> out;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    if (wire[i] != 0) out.push_back({base + i, wire[i]});
  }
  return out;
}

/// The first seed from \p first on whose reference walk over \p total
/// symbols corrupts something, or \p first if none of 64 does (the
/// caller's emptiness assertion then reports it). LEO fades are seed
/// luck: the AR(1) power samples are correlated, so a short stream may
/// never fade. The scan is deterministic, as in
/// ChannelSkipAhead.LeoFixedSeedGolden.
std::uint64_t first_seed_with_events(const ChannelFactory& factory, std::uint64_t first,
                                     std::size_t total) {
  for (std::uint64_t seed = first; seed < first + 64; ++seed) {
    const auto wire = reference_wire(factory, seed, total);
    if (std::any_of(wire.begin(), wire.end(), [](std::uint8_t b) { return b != 0; })) {
      return seed;
    }
  }
  return first;
}

TEST(ChannelSource, CorruptMatchesRawChannelApply) {
  constexpr std::size_t kTotal = 60'000;
  const auto expected = reference_wire(ge_factory(), 5, kTotal);

  ChannelSource src(ge_factory(), 5);
  std::vector<std::uint8_t> wire(kTotal, 0);
  // Frame-sized forward windows.
  for (std::size_t pos = 0; pos < kTotal; pos += 7000) {
    const std::size_t len = std::min<std::size_t>(7000, kTotal - pos);
    src.corrupt(pos, std::span<std::uint8_t>(wire.data() + pos, len));
  }
  EXPECT_EQ(wire, expected);
}

TEST(ChannelSource, EventsMatchCorruptPattern) {
  // The channels emit their events directly, so splitting a range into
  // sub-ranges — down to one symbol each — must emit exactly the events
  // of one call, which must be the corruption apply() writes into a
  // zeroed buffer. Every channel model; the random split lengths bear no
  // relation to the LEO sample window or the GE burst length.
  constexpr std::size_t kTotal = 40'000;
  for (const auto& [name, factory] :
       {std::pair{"bsc", bsc_factory()}, std::pair{"ge", ge_factory()},
        std::pair{"leo", leo_factory()}}) {
    const std::uint64_t seed = first_seed_with_events(factory, 11, kTotal);
    const auto expected = events_of(reference_wire(factory, seed, kTotal));
    ASSERT_FALSE(expected.empty()) << name;

    ChannelSource whole(factory, seed);
    std::vector<Corruption> one_call;
    EXPECT_EQ(whole.collect(0, kTotal, one_call), expected.size()) << name;
    EXPECT_EQ(one_call, expected) << name;

    ChannelSource split(factory, seed);
    std::vector<Corruption> random_split;
    Rng len_rng(3);
    for (std::size_t pos = 0; pos < kTotal;) {
      const std::size_t len = std::min(
          kTotal - pos, static_cast<std::size_t>(1 + len_rng.uniform(997)));
      split.collect(pos, len, random_split);
      pos += len;
    }
    EXPECT_EQ(random_split, expected) << name;

    ChannelSource stepped(factory, seed);
    std::vector<Corruption> single_symbols;
    for (std::size_t pos = 0; pos < kTotal; ++pos) {
      stepped.collect(pos, 1, single_symbols);
    }
    EXPECT_EQ(single_symbols, expected) << name;
  }
}

TEST(ChannelSource, RandomAccessRewindsDeterministically) {
  constexpr std::size_t kTotal = 30'000;
  const std::uint64_t seed = first_seed_with_events(leo_factory(), 21, kTotal);
  const auto expected = reference_wire(leo_factory(), seed, kTotal);
  ASSERT_FALSE(events_of(expected).empty());

  ChannelSource src(leo_factory(), seed);
  // Walk to the end, then jump back to arbitrary earlier windows: each
  // must reproduce the sequential pattern exactly.
  std::vector<Corruption> sink;
  src.collect(0, kTotal, sink);
  for (const std::size_t start : {25'000u, 100u, 12'345u, 0u}) {
    const std::size_t len = std::min<std::size_t>(2048, kTotal - start);
    std::vector<std::uint8_t> window(len, 0);
    src.corrupt(start, window);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(window[i], expected[start + i])
          << "window start " << start << " offset " << i;
    }
  }
}

TEST(MultiLink, SingleLinkIsIdentityRemap) {
  // N=1, zero phase: the composite must emit exactly the inner source's
  // events at unchanged positions.
  constexpr std::size_t kTotal = 30'000;
  ChannelSource plain(ge_factory(), 77);
  std::vector<Corruption> expected;
  plain.collect(0, kTotal, expected);
  ASSERT_FALSE(expected.empty());

  std::vector<MultiLinkSource::Link> links;
  links.push_back({std::make_unique<ChannelSource>(ge_factory(), 77), 0});
  MultiLinkSource multi(std::move(links));
  std::vector<Corruption> got;
  multi.collect(0, kTotal, got);
  std::sort(got.begin(), got.end(),
            [](const Corruption& a, const Corruption& b) {
              return a.wire_pos < b.wire_pos;
            });
  EXPECT_EQ(got, expected);
}

TEST(MultiLink, RoundRobinCompositionMatchesPerLinkStreams) {
  // Global position p belongs to link p % N at local position p / N
  // (plus the link's phase offset). Verify the composite against each
  // link's standalone event stream.
  constexpr std::size_t kLinks = 3;
  constexpr std::size_t kSpan = 30'000;
  const std::uint64_t phase[kLinks] = {0, 1000, 50'000};

  std::vector<MultiLinkSource::Link> links;
  std::vector<std::vector<Corruption>> per_link(kLinks);
  for (std::size_t l = 0; l < kLinks; ++l) {
    const std::uint64_t seed = 400 + l;
    links.push_back(
        {std::make_unique<ChannelSource>(ge_factory(), seed), phase[l]});
    // Standalone reference covering every local position the composite
    // can touch for this link.
    ChannelSource ref(ge_factory(), seed);
    ref.collect(phase[l], kSpan / kLinks + 1, per_link[l]);
  }
  MultiLinkSource multi(std::move(links));
  EXPECT_EQ(multi.link_count(), kLinks);

  std::vector<Corruption> got;
  multi.collect(0, kSpan, got);
  ASSERT_FALSE(got.empty());

  // Rebuild the expected composite stream from the per-link references.
  std::vector<Corruption> expected;
  for (std::size_t l = 0; l < kLinks; ++l) {
    for (const auto& e : per_link[l]) {
      const std::uint64_t global = (e.wire_pos - phase[l]) * kLinks + l;
      if (global < kSpan) expected.push_back({global, e.flip});
    }
  }
  const auto by_pos = [](const Corruption& a, const Corruption& b) {
    return a.wire_pos < b.wire_pos;
  };
  std::sort(expected.begin(), expected.end(), by_pos);
  std::sort(got.begin(), got.end(), by_pos);
  EXPECT_EQ(got, expected);
}

TEST(MultiLink, ChunkedQueriesMatchOneShot) {
  // Splitting the global range at arbitrary boundaries must not change
  // the event set (each link sees correctly clipped local sub-ranges).
  constexpr std::size_t kSpan = 24'000;
  const auto build = [] {
    std::vector<MultiLinkSource::Link> links;
    for (std::size_t l = 0; l < 4; ++l) {
      links.push_back(
          {std::make_unique<ChannelSource>(ge_factory(), 900 + l),
           l * 137});
    }
    return std::make_unique<MultiLinkSource>(std::move(links));
  };

  std::vector<Corruption> one_shot;
  build()->collect(0, kSpan, one_shot);
  ASSERT_FALSE(one_shot.empty());

  auto chunked_src = build();
  std::vector<Corruption> chunked;
  Rng len_rng(6);
  for (std::size_t pos = 0; pos < kSpan;) {
    const std::size_t len = std::min(
        kSpan - pos, static_cast<std::size_t>(1 + len_rng.uniform(5000)));
    chunked_src->collect(pos, len, chunked);
    pos += len;
  }
  const auto by_pos = [](const Corruption& a, const Corruption& b) {
    return a.wire_pos < b.wire_pos;
  };
  std::sort(one_shot.begin(), one_shot.end(), by_pos);
  std::sort(chunked.begin(), chunked.end(), by_pos);
  EXPECT_EQ(chunked, one_shot);
}

TEST(BurstTrace, EventLineRoundTrip) {
  const Corruption e{123'456'789, 200};
  EXPECT_EQ(format_burst_event(e), "123456789 200");
  Corruption parsed;
  ASSERT_TRUE(parse_burst_event("123456789 200", parsed));
  EXPECT_EQ(parsed, e);
}

TEST(BurstTrace, ParserSkipsCommentsAndRejectsMalformed) {
  Corruption e;
  EXPECT_FALSE(parse_burst_event("", e));
  EXPECT_FALSE(parse_burst_event("   ", e));
  EXPECT_FALSE(parse_burst_event("# comment", e));
  EXPECT_THROW(parse_burst_event("42", e), std::invalid_argument);
  EXPECT_THROW(parse_burst_event("42 0", e), std::invalid_argument);
  EXPECT_THROW(parse_burst_event("42 256", e), std::invalid_argument);
  EXPECT_THROW(parse_burst_event("42 7 junk", e), std::invalid_argument);
  EXPECT_THROW(parse_burst_event("not a number 7", e), std::invalid_argument);
}

TEST(BurstTrace, RejectsTwoEventsAtOnePosition) {
  // A second flip at one position would cancel the first or count twice;
  // a trace that has one is malformed, whatever order it is written in.
  std::istringstream in(std::string(kBurstTraceHeader) + "\n5 1\n123456 2\n5 3\n");
  try {
    read_burst_trace(in);
    FAIL() << "duplicate position accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("position 5"), std::string::npos) << e.what();
  }
  EXPECT_THROW(TraceReplaySource({{9, 1}, {4, 2}, {9, 1}}), std::invalid_argument);
  EXPECT_NO_THROW(TraceReplaySource({{9, 1}, {4, 2}}));
}

TEST(BurstTrace, WriterReaderRoundTripSortsByPosition) {
  std::ostringstream out;
  BurstTraceWriter writer(out);
  writer.comment("recorded by test");
  writer.record({500, 9});
  writer.record({10, 255});  // out of order on purpose
  writer.record({200, 1});
  EXPECT_EQ(writer.events_written(), 3u);

  std::istringstream in(out.str());
  const auto events = read_burst_trace(in);
  const std::vector<Corruption> expected{{10, 255}, {200, 1}, {500, 9}};
  EXPECT_EQ(events, expected);
}

TEST(BurstTrace, ReaderRequiresHeader) {
  std::istringstream in("10 255\n");
  EXPECT_THROW(read_burst_trace(in), std::invalid_argument);
}

TEST(TraceReplay, RangeQueriesAreClippedBinarySearches) {
  TraceReplaySource src({{5, 1}, {100, 2}, {101, 3}, {5000, 4}});
  EXPECT_EQ(src.total_events(), 4u);

  std::vector<Corruption> got;
  src.collect(0, 5, got);
  EXPECT_TRUE(got.empty()) << "position 5 is outside [0, 5)";
  src.collect(5, 96, got);  // [5, 101): picks up 5 and 100
  const std::vector<Corruption> first{{5, 1}, {100, 2}};
  EXPECT_EQ(got, first);
  got.clear();
  src.collect(101, 1'000'000, got);
  const std::vector<Corruption> rest{{101, 3}, {5000, 4}};
  EXPECT_EQ(got, rest);
}

TEST(TraceReplay, CorruptXorsEventsIntoBuffer) {
  TraceReplaySource src({{2, 0x0F}, {7, 0xF0}});
  std::vector<std::uint8_t> wire(10, 0xAA);
  EXPECT_EQ(src.corrupt(0, wire), 2u);
  EXPECT_EQ(wire[2], 0xAA ^ 0x0F);
  EXPECT_EQ(wire[7], 0xAA ^ 0xF0);
  EXPECT_EQ(wire[0], 0xAA);
}

TEST(Recording, TeeWritesEveryEventAndForwards) {
  // Record a channel run, then replay the written text: the replayed
  // event set must equal the live one.
  constexpr std::size_t kTotal = 80'000;
  auto out = std::make_unique<std::ostringstream>();
  auto* out_raw = out.get();
  RecordingSource rec(std::make_unique<ChannelSource>(ge_factory(), 55),
                      std::move(out));

  std::vector<Corruption> live;
  rec.collect(0, kTotal, live);
  ASSERT_FALSE(live.empty());
  EXPECT_EQ(rec.events_written(), live.size());
  EXPECT_STREQ(rec.name(), "gilbert-elliott") << "name forwards to the inner";

  std::istringstream in(out_raw->str());
  auto events = read_burst_trace(in);
  std::sort(live.begin(), live.end(),
            [](const Corruption& a, const Corruption& b) {
              return a.wire_pos < b.wire_pos;
            });
  EXPECT_EQ(events, live);

  // And the replayed source corrupts a wire identically to the original
  // channel walked sequentially.
  TraceReplaySource replay(std::move(events));
  std::vector<std::uint8_t> wire(kTotal, 0);
  replay.corrupt(0, wire);
  EXPECT_EQ(wire, reference_wire(ge_factory(), 55, kTotal));
}

}  // namespace
}  // namespace tbi::source
