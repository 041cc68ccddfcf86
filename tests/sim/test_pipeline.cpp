#include "sim/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "../channel/per_symbol_channels.hpp"
#include "common/rng.hpp"
#include "fec/reed_solomon.hpp"
#include "interleaver/block.hpp"
#include "interleaver/triangular.hpp"
#include "interleaver/twostage.hpp"
#include "perf/bench_compare.hpp"
#include "source/source.hpp"

namespace tbi::sim {
namespace {

/// A bursty Gilbert-Elliott profile whose fades are long enough to swamp
/// single code words (mean 300 symbols at 95 % error rate, versus a
/// correction capability of t = 16 per RS(255,223) word) but short
/// relative to the 32640-symbol triangular block, so the interleaver can
/// spread them below t.
PipelineConfig burst_config(const std::string& interleaver, std::uint64_t seed) {
  PipelineConfig c;
  c.interleaver = interleaver;
  c.channel = "gilbert-elliott";
  c.fade_fraction = 0.004;
  c.mean_burst_symbols = 300;
  c.error_rate_bad = 0.95;
  c.frames = 20;
  c.seed = seed;
  c.run_dram = false;
  return c;
}

/// Every simulated field of two DRAM phases; host_ns is host timing.
void expect_same_phase(const dram::PhaseStats& a, const dram::PhaseStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.label, b.label) << what;
  EXPECT_EQ(a.bursts, b.bursts) << what;
  EXPECT_EQ(a.picks, b.picks) << what;
  EXPECT_EQ(a.pick_candidates, b.pick_candidates) << what;
  EXPECT_EQ(a.reads, b.reads) << what;
  EXPECT_EQ(a.writes, b.writes) << what;
  EXPECT_EQ(a.activates, b.activates) << what;
  EXPECT_EQ(a.precharges, b.precharges) << what;
  EXPECT_EQ(a.refreshes, b.refreshes) << what;
  EXPECT_EQ(a.row_hits, b.row_hits) << what;
  EXPECT_EQ(a.row_misses, b.row_misses) << what;
  EXPECT_EQ(a.row_conflicts, b.row_conflicts) << what;
  EXPECT_EQ(a.start, b.start) << what;
  EXPECT_EQ(a.end, b.end) << what;
  EXPECT_EQ(a.busy, b.busy) << what;
}

/// The DRAM stage of \p r re-run with the JEDEC protocol checker attached
/// (run_interleaver throws on a violation): side 32 on DDR4-3200, the
/// optimized mapping, full phases. Its counters must equal the record's.
void expect_protocol_clean_side32(const PipelineResult& r) {
  RunConfig checked;
  checked.device = *dram::find_config("DDR4-3200");
  checked.side = 32;
  checked.check_protocol = true;
  const InterleaverRun clean = run_interleaver(checked);
  ASSERT_TRUE(r.dram_ran);
  expect_same_phase(r.dram.write.stats, clean.write.stats, "checked write");
  expect_same_phase(r.dram.read.stats, clean.read.stats, "checked read");
}

/// Every DRAM counter of two pipeline results.
void expect_same_dram(const PipelineResult& a, const PipelineResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.dram_ran, b.dram_ran) << what;
  EXPECT_EQ(a.dram_throughput_gbps, b.dram_throughput_gbps) << what;
  EXPECT_EQ(a.dram.device_name, b.dram.device_name) << what;
  EXPECT_EQ(a.dram.mapping_name, b.dram.mapping_name) << what;
  expect_same_phase(a.dram.write.stats, b.dram.write.stats, what + " write");
  expect_same_phase(a.dram.read.stats, b.dram.read.stats, what + " read");
}

TEST(Pipeline, CleanChannelHasZeroErrors) {
  for (const char* il : {"none", "triangular", "block"}) {
    PipelineConfig c;
    c.interleaver = il;
    c.channel = "none";
    c.frames = 3;
    c.run_dram = false;
    const auto r = run_pipeline(c);
    EXPECT_EQ(r.word_errors, 0u) << il;
    EXPECT_EQ(r.frame_errors, 0u) << il;
    EXPECT_EQ(r.channel_symbol_errors, 0u) << il;
    EXPECT_EQ(r.corrected_symbols, 0u) << il;
    EXPECT_EQ(r.frames, 3u);
    // One shortened word per triangle row long enough to carry data:
    // rows 0..k-1, i.e. k words per frame.
    EXPECT_EQ(r.code_words, 3u * 223u) << il;
  }
}

TEST(Pipeline, SteadyStateFrameLoopAllocatesNothing) {
  // The workspace-reuse invariant behind every bench record's
  // allocations_per_frame == 0: after the warm-up frame, neither the
  // row-aligned nor the streaming frame layout touches the allocator.
  for (const char* il : {"none", "block", "triangular"}) {
    auto c = burst_config(il, 3);
    const auto r = run_pipeline(c);
    EXPECT_EQ(r.steady_allocations, 0u) << il;
    EXPECT_EQ(r.steady_frames, static_cast<std::uint64_t>(c.frames) - 1) << il;
    EXPECT_EQ(r.allocations_per_frame(), 0.0) << il;
    EXPECT_GT(r.host_ns, 0u) << il;
    // The channel sees the full frame capacity every frame.
    EXPECT_EQ(r.channel_symbols, static_cast<std::uint64_t>(c.frames) * r.frame_symbols)
        << il;
    EXPECT_GT(r.channel_symbols_per_second(), 0.0) << il;
  }
  // Streaming path (side decoupled from the code word), all channels.
  for (const char* channel : {"bsc", "gilbert-elliott", "leo"}) {
    auto c = burst_config("triangular", 3);
    c.channel = channel;
    c.side = 400;
    const auto r = run_pipeline(c);
    EXPECT_EQ(r.steady_allocations, 0u) << channel;
    EXPECT_EQ(r.allocations_per_frame(), 0.0) << channel;
    EXPECT_EQ(r.channel_symbols, static_cast<std::uint64_t>(c.frames) * r.frame_symbols)
        << channel;
  }
  // A channel-free run pushes nothing through the channel counter.
  PipelineConfig clean;
  clean.channel = "none";
  clean.frames = 2;
  clean.run_dram = false;
  const auto r = run_pipeline(clean);
  EXPECT_EQ(r.channel_symbols, 0u);
  EXPECT_EQ(r.channel_symbols_per_second(), 0.0);
  EXPECT_EQ(r.steady_allocations, 0u);
}

TEST(Pipeline, ZeroProbabilityBscIsClean) {
  PipelineConfig c;
  c.channel = "bsc";
  c.error_probability = 0.0;
  c.frames = 2;
  c.run_dram = false;
  const auto r = run_pipeline(c);
  EXPECT_EQ(r.word_errors, 0u);
  EXPECT_EQ(r.frame_errors, 0u);
}

TEST(Pipeline, BurstsBeyondRsBreakUninterleavedFrames) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto r = run_pipeline(burst_config("none", seed));
    EXPECT_GT(r.channel_symbol_errors, 0u) << seed;
    EXPECT_GT(r.word_errors, 0u) << seed;
    EXPECT_GT(r.frame_errors, 0u) << seed;
  }
}

TEST(Pipeline, TriangularInterleavingRecoversTheSameBursts) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const auto direct = run_pipeline(burst_config("none", seed));
    const auto interleaved = run_pipeline(burst_config("triangular", seed));
    // Decoupled channel seeding: both systems saw the same fades.
    EXPECT_EQ(direct.channel_symbol_errors, interleaved.channel_symbol_errors) << seed;
    EXPECT_GT(direct.frame_errors, 0u) << seed;
    EXPECT_EQ(interleaved.word_errors, 0u) << seed;
    EXPECT_EQ(interleaved.frame_errors, 0u) << seed;
    // The errors did not vanish — RS corrected them after spreading.
    EXPECT_GT(interleaved.corrected_symbols, 0u) << seed;
  }
}

TEST(Pipeline, MemorylessChannelIsInterleaverNeutral) {
  // Control case: on a BSC the interleaver must not change the outcome
  // (identical channel draws, symbol-wise independent errors).
  PipelineConfig c;
  c.channel = "bsc";
  c.error_probability = 0.01;
  c.frames = 5;
  c.run_dram = false;
  c.interleaver = "none";
  const auto direct = run_pipeline(c);
  c.interleaver = "triangular";
  const auto interleaved = run_pipeline(c);
  EXPECT_EQ(direct.channel_symbol_errors, interleaved.channel_symbol_errors);
  EXPECT_EQ(direct.word_errors, interleaved.word_errors);
}

TEST(Pipeline, LeoChannelRuns) {
  PipelineConfig c;
  c.interleaver = "triangular";
  c.channel = "leo";
  c.fade_fraction = 0.05;
  c.mean_burst_symbols = 1500;
  c.frames = 5;
  c.run_dram = false;
  const auto r = run_pipeline(c);
  EXPECT_GT(r.channel_symbol_errors, 0u);
  EXPECT_EQ(r.code_words, 5u * 223u);
}

TEST(Pipeline, DramStageReportsFeasibility) {
  PipelineConfig c;
  c.channel = "none";
  c.frames = 1;
  c.run_dram = true;
  c.device = *dram::find_config("DDR4-3200");
  c.dram_max_bursts_per_phase = 0;  // full (small) triangle
  const auto r = run_pipeline(c);
  ASSERT_TRUE(r.dram_ran);
  // One 32640-byte triangular block = 510 bursts of 64 B -> side 32.
  expect_protocol_clean_side32(r);
  EXPECT_EQ(r.dram.write.stats.bursts, r.dram.read.stats.bursts);
  EXPECT_GT(r.dram.write.stats.bursts, 500u);
  EXPECT_GT(r.dram_throughput_gbps, 0.0);
  EXPECT_EQ(r.dram.device_name, "DDR4-3200");
}

TEST(Pipeline, DramStageRejectsSramInterleavers) {
  // "none" buffers nothing and "block" is the SRAM stage-1 structure:
  // asking for their DRAM phases is a configuration error, not a silent
  // no-op.
  for (const char* il : {"none", "block"}) {
    PipelineConfig c;
    c.interleaver = il;
    c.channel = "none";
    c.frames = 1;
    c.run_dram = true;
    c.device = *dram::find_config("DDR4-3200");
    EXPECT_THROW(run_pipeline(c), std::invalid_argument) << il;
  }
}

TEST(Pipeline, TwoStageGoldenDramCounters) {
  // Golden DDR4-3200 counters for a small two-stage run: the stage-2
  // triangle is burst-granular, so both phases move exactly T(side)
  // bursts, and the optimized mapping keeps the row hits near-perfect.
  PipelineConfig c;
  c.interleaver = "two-stage";
  c.side = 32;
  c.symbols_per_burst = 8;
  c.channel = "none";
  c.frames = 1;
  c.run_dram = true;
  c.device = *dram::find_config("DDR4-3200");
  c.dram_max_bursts_per_phase = 0;  // full (small) burst triangle
  const auto r = run_pipeline(c);
  expect_protocol_clean_side32(r);

  EXPECT_EQ(r.frame_symbols, 528u * 8u);
  EXPECT_EQ(r.code_words, 16u);  // floor(4224 / 255) full words per frame
  EXPECT_EQ(r.word_errors, 0u);

  ASSERT_TRUE(r.dram_ran);
  EXPECT_EQ(r.dram.device_name, "DDR4-3200");
  const auto& w = r.dram.write.stats;
  const auto& rd = r.dram.read.stats;
  EXPECT_EQ(w.bursts, 528u);
  EXPECT_EQ(rd.bursts, 528u);
  EXPECT_EQ(w.activates, 16u);
  EXPECT_EQ(w.row_hits, 512u);
  EXPECT_EQ(w.row_misses, 16u);
  EXPECT_EQ(w.row_conflicts, 0u);
  EXPECT_EQ(rd.activates, 0u);  // rows stay open across the phase switch
  EXPECT_EQ(rd.row_hits, 528u);
  EXPECT_EQ(w.elapsed(), 1322500u);
  EXPECT_EQ(rd.elapsed(), 1322500u);
  EXPECT_NEAR(r.dram.min_utilization(), 0.998110, 1e-6);
  EXPECT_GT(r.dram_throughput_gbps, 0.0);
}

TEST(Pipeline, RejectsBadConfigs) {
  const auto expect_invalid = [](const std::function<void(PipelineConfig&)>& tweak) {
    PipelineConfig c;
    c.run_dram = false;
    tweak(c);
    EXPECT_THROW(run_pipeline(c), std::invalid_argument);
  };
  expect_invalid([](PipelineConfig& c) { c.interleaver = "helical"; });
  expect_invalid([](PipelineConfig& c) { c.channel = "awgn"; });
  expect_invalid([](PipelineConfig& c) { c.rs_k = 0; });
  expect_invalid([](PipelineConfig& c) { c.rs_k = 222; /* odd parity */ });
  expect_invalid([](PipelineConfig& c) {
    c.run_dram = true;  // no device set
    c.channel = "none";
    c.frames = 1;
  });
  expect_invalid([](PipelineConfig& c) {
    c.interleaver = "two-stage";
    c.symbols_per_burst = 0;
  });
  expect_invalid([](PipelineConfig& c) {
    c.side = 10;  // T(10) = 55 < one RS(255, k) code word
  });
}

TEST(Pipeline, CodeRateAxisChangesCorrectionPower) {
  // A stronger code (more parity) corrects bursts a weaker one cannot.
  auto weak = burst_config("triangular", 7);
  weak.rs_k = 251;  // t = 2
  const auto weak_r = run_pipeline(weak);
  auto strong = burst_config("triangular", 7);
  strong.rs_k = 223;  // t = 16
  const auto strong_r = run_pipeline(strong);
  EXPECT_GT(weak_r.word_errors, 0u);
  EXPECT_EQ(strong_r.word_errors, 0u);
}

// ---------------------------------------------------------------------------
// Streaming frame path (side decoupled from rs_n, "two-stage")
// ---------------------------------------------------------------------------

TEST(PipelineStreaming, CleanChannelEveryKind) {
  // Streaming frames pack full RS words back to back; a clean channel
  // must decode every one of them without touching the error machinery.
  for (const char* il : {"none", "block", "triangular", "two-stage"}) {
    PipelineConfig c;
    c.interleaver = il;
    c.side = 40;  // != rs_n -> streaming for every kind
    c.symbols_per_burst = 8;
    c.channel = "none";
    c.frames = 3;
    c.run_dram = false;
    const auto r = run_pipeline(c);
    const std::uint64_t capacity =
        std::string(il) == "two-stage" ? 820u * 8u : 820u;
    EXPECT_EQ(r.frame_symbols, capacity) << il;
    EXPECT_EQ(r.code_words, 3u * (capacity / 255u)) << il;
    EXPECT_EQ(r.word_errors, 0u) << il;
    EXPECT_EQ(r.frame_errors, 0u) << il;
    EXPECT_EQ(r.channel_symbol_errors, 0u) << il;
  }
}

TEST(PipelineStreaming, TriangularStreamingRecoversBursts) {
  // Streaming analogue of the legacy recovery test at a side far past
  // rs_n. Channel corruption is data-independent, so the "none" and
  // "triangular" systems see the *identical* corruption pattern and only
  // the interleaving differs. A fade on the triangle's short tip rows
  // still sinks a word now and then (about 3% of triangular frames here,
  // under the per-symbol channel oracle as well), so the claim is made
  // over 16 seeds: interleaving removes nearly every word and frame error.
  PipelineConfig c;
  c.channel = "gilbert-elliott";
  c.side = 600;
  c.fade_fraction = 0.004;
  c.mean_burst_symbols = 300;
  c.error_rate_bad = 0.95;
  c.frames = 10;
  c.run_dram = false;

  constexpr std::uint64_t kSeeds = 16;
  std::uint64_t direct_words = 0, direct_frames = 0;
  std::uint64_t interleaved_words = 0, interleaved_frames = 0, corrected = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    c.seed = seed;
    c.interleaver = "none";
    const auto direct = run_pipeline(c);
    c.interleaver = "triangular";
    const auto interleaved = run_pipeline(c);
    EXPECT_EQ(direct.channel_symbol_errors, interleaved.channel_symbol_errors) << seed;
    direct_words += direct.word_errors;
    direct_frames += direct.frame_errors;
    interleaved_words += interleaved.word_errors;
    interleaved_frames += interleaved.frame_errors;
    corrected += interleaved.corrected_symbols;
  }
  // Uninterleaved, most frames are lost.
  EXPECT_GT(direct_frames, kSeeds * c.frames / 2);
  EXPECT_LT(4 * interleaved_frames, direct_frames);
  EXPECT_LT(5 * interleaved_words, direct_words);
  EXPECT_GT(corrected, 0u);
}

TEST(PipelineStreaming, PaperScaleTwoStageBoundedMemory) {
  // Acceptance scale: a >= 5000-burst-side two-stage pipeline (25 M
  // symbols per frame) completes, and the instrumented workspace peak is
  // the fixed per-word weight array — one byte per code word, however
  // many events the channel throws.
  PipelineConfig c;
  c.interleaver = "two-stage";
  c.side = 5000;
  c.symbols_per_burst = 2;
  c.channel = "gilbert-elliott";
  c.fade_fraction = 0.001;
  c.mean_burst_symbols = 2000;
  c.error_rate_bad = 0.8;
  c.frames = 1;
  c.run_dram = false;
  const auto r = run_pipeline(c);

  EXPECT_EQ(r.frame_symbols, 12'502'500u * 2u);
  EXPECT_EQ(r.code_words, 25'005'000u / 255u);
  EXPECT_GT(r.channel_symbol_errors, 1000u);
  // The paper-scale two-stage frame swallows these fades completely.
  // (corrected can trail the channel count only by hits landing in the
  // sub-word zero-padding tail: capacity % 255 == 210 symbols.)
  EXPECT_EQ(r.word_errors, 0u);
  EXPECT_LE(r.corrected_symbols, r.channel_symbol_errors);
  EXPECT_LE(r.channel_symbol_errors - r.corrected_symbols, 210u);

  // Peak allocation: capacity / n weight bytes plus the padding slot. A
  // materialized frame would need >= 3 capacity-sized buffers.
  EXPECT_GE(r.workspace_peak_bytes, r.frame_symbols / 255);
  EXPECT_LE(r.workspace_peak_bytes, r.frame_symbols / 255 + 64);
}

TEST(PipelineStreaming, FerOrdersTwoStageTriangularBlockNone) {
  // Fixed-seed statistical assertion (paper §I/§II): under long
  // Gilbert-Elliott fades that saturate inside the fade, the frame error
  // rates order two-stage <= triangular <= block <= none.
  //
  // Geometry: the classic systems run the row-aligned RS-255 triangle;
  // the two-stage system runs its natural burst-granular scale (side 255
  // bursts of one code word each, 8.3 M symbols per frame — 255x the
  // data per frame, which only strengthens the assertion). With
  // symbols_per_burst == rs_n, one stage-1 chunk is exactly one code
  // word, so a fully faded DRAM burst costs every word of its super-block
  // one symbol, and a word only dies when >= t+1 faded bursts land in
  // one super-block — a fade longer than anything this channel produces.
  const auto run = [](const char* il, unsigned frames) {
    PipelineConfig c;
    c.interleaver = il;
    c.channel = "gilbert-elliott";
    c.fade_fraction = 0.01;
    c.mean_burst_symbols = 1500;
    c.error_rate_bad = 1.0;
    c.frames = frames;
    c.seed = 1;
    c.run_dram = false;
    c.side = 255;
    c.symbols_per_burst = 255;
    return run_pipeline(c);
  };
  const auto none = run("none", 300);
  const auto block = run("block", 300);
  const auto tri = run("triangular", 300);
  const auto two_stage = run("two-stage", 6);

  // Every system was genuinely stressed.
  EXPECT_GT(none.word_errors, 0u);
  EXPECT_GT(block.word_errors, 0u);
  EXPECT_GT(tri.word_errors, 0u);
  EXPECT_GT(two_stage.channel_symbol_errors, 100'000u);

  const double f_none = none.frame_error_rate();
  const double f_block = block.frame_error_rate();
  const double f_tri = tri.frame_error_rate();
  const double f_two = two_stage.frame_error_rate();
  EXPECT_LE(f_two, f_tri);
  EXPECT_LE(f_tri, f_block);
  EXPECT_LE(f_block, f_none);
  // The interesting joints are strict at this seed, with wide margins.
  EXPECT_EQ(two_stage.word_errors, 0u);
  EXPECT_LT(f_tri, f_block);
  EXPECT_LT(2.0 * f_block, f_none);
}

TEST(FerSweep, GridRecordsMatchScenarios) {
  SweepGrid grid;
  grid.devices = {"DDR4-3200"};
  grid.interleavers = {"none", "triangular"};
  grid.channels = {"gilbert-elliott"};
  FerSweepOptions o;
  o.base = burst_config("triangular", 0);
  o.base.frames = 5;
  o.base.run_dram = false;
  o.sweep.threads = 2;
  const auto records = run_fer_sweep(grid, o);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].scenario.interleaver, "none");
  EXPECT_EQ(records[1].scenario.interleaver, "triangular");
  EXPECT_EQ(records[0].config.interleaver, "none");
  EXPECT_EQ(records[0].result.frames, 5u);
}

TEST(FerSweep, DeterministicAcrossThreadCounts) {
  // Covers the full interleaver axis including "two-stage": records must
  // be identical for any thread count. The 12 DRAM-resident cells share
  // two DRAM inputs.
  SweepGrid grid;
  grid.devices = {"DDR4-3200"};
  grid.interleavers = {"none", "triangular", "block", "two-stage"};
  grid.channels = {"bsc", "gilbert-elliott", "leo"};
  grid.rs_ks = {223, 239};
  FerSweepOptions o;
  o.base.frames = 2;
  o.base.run_dram = true;
  o.base.dram_max_bursts_per_phase = 200;
  o.base.side = 64;  // streaming path for every cell, small frames
  o.base.symbols_per_burst = 8;
  o.base.fade_fraction = 0.01;
  o.base.mean_burst_symbols = 200;
  o.sweep.base_seed = 5;

  o.sweep.threads = 1;
  const auto serial = run_fer_sweep(grid, o);
  o.sweep.threads = 4;
  const auto parallel = run_fer_sweep(grid, o);
  ASSERT_EQ(serial.size(), 24u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].config.seed, parallel[i].config.seed) << i;
    EXPECT_EQ(serial[i].result.word_errors, parallel[i].result.word_errors) << i;
    EXPECT_EQ(serial[i].result.frame_errors, parallel[i].result.frame_errors) << i;
    EXPECT_EQ(serial[i].result.channel_symbol_errors,
              parallel[i].result.channel_symbol_errors) << i;
    EXPECT_EQ(serial[i].result.corrected_symbols,
              parallel[i].result.corrected_symbols) << i;
    EXPECT_EQ(serial[i].result.frame_symbols, parallel[i].result.frame_symbols) << i;
    expect_same_dram(serial[i].result, parallel[i].result, serial[i].scenario.label());
  }
  // Index: interleaver * 6 + channel * 2 + rs_k.
  EXPECT_FALSE(serial[0].result.dram_ran);  // none
  EXPECT_TRUE(serial[6].result.dram_ran);   // triangular
  EXPECT_TRUE(serial[18].result.dram_ran);  // two-stage
}

TEST(FerSweep, CellsWithOneDramInputShareOneRun) {
  SweepGrid grid;
  grid.devices = {"DDR4-3200", "LPDDR5-8533"};
  grid.interleavers = {"block", "triangular", "two-stage"};
  grid.channels = {"bsc", "gilbert-elliott"};
  FerSweepOptions o;
  o.base.frames = 2;
  o.base.side = 64;
  o.base.symbols_per_burst = 8;
  o.base.dram_max_bursts_per_phase = 500;
  o.sweep.threads = 2;
  const auto records = run_fer_sweep(grid, o);
  ASSERT_EQ(records.size(), 12u);

  // Each record's config still reproduces it alone, DRAM stage included.
  for (const auto& r : records) {
    const std::string label = r.scenario.label();
    const PipelineResult alone = run_pipeline(r.config);
    EXPECT_EQ(r.result.frames, alone.frames) << label;
    EXPECT_EQ(r.result.frame_symbols, alone.frame_symbols) << label;
    EXPECT_EQ(r.result.code_words, alone.code_words) << label;
    EXPECT_EQ(r.result.word_errors, alone.word_errors) << label;
    EXPECT_EQ(r.result.frame_errors, alone.frame_errors) << label;
    EXPECT_EQ(r.result.channel_symbol_errors, alone.channel_symbol_errors) << label;
    EXPECT_EQ(r.result.corrected_symbols, alone.corrected_symbols) << label;
    EXPECT_EQ(r.result.channel_symbols, alone.channel_symbols) << label;
    EXPECT_EQ(r.result.workspace_peak_bytes, alone.workspace_peak_bytes) << label;
    EXPECT_EQ(r.result.steady_allocations, alone.steady_allocations) << label;
    EXPECT_EQ(r.result.steady_frames, alone.steady_frames) << label;
    expect_same_dram(r.result, alone, label);
    EXPECT_EQ(r.result.dram_ran, r.scenario.interleaver != "block") << label;
  }

  // The two channels of one (device, interleaver) share a DRAM input, so
  // they copy one run, host timing included. Index: device * 6 +
  // interleaver * 2 + channel.
  for (std::size_t cell = 0; cell < records.size(); cell += 2) {
    const PipelineResult& bsc = records[cell].result;
    const PipelineResult& ge = records[cell + 1].result;
    if (!bsc.dram_ran) continue;
    EXPECT_EQ(bsc.dram.write.stats.host_ns, ge.dram.write.stats.host_ns) << cell;
    EXPECT_EQ(bsc.dram.read.stats.host_ns, ge.dram.read.stats.host_ns) << cell;
  }

  // No input is shared across devices: each device's runs are its own.
  for (const std::size_t cell : {2u, 4u}) {
    const InterleaverRun& ddr4 = records[cell].result.dram;
    const InterleaverRun& lpddr5 = records[cell + 6].result.dram;
    EXPECT_EQ(ddr4.device_name, "DDR4-3200");
    EXPECT_EQ(lpddr5.device_name, "LPDDR5-8533");
    EXPECT_NE(ddr4.write.stats.end, lpddr5.write.stats.end) << cell;
    EXPECT_NE(ddr4.read.stats.end, lpddr5.read.stats.end) << cell;
  }

  // A DRAM input is every field of its RunConfig, not the device name.
  RunConfig a;
  a.device = *dram::find_config("DDR4-3200");
  RunConfig b = a;
  EXPECT_TRUE(a == b);
  b.device.timing.tRCD += 1;
  EXPECT_FALSE(a == b);
}

TEST(FerSweep, RunDramNarrowedToDramResidentCells) {
  // A mixed grid with run_dram set in the template must not trip the
  // SRAM-interleaver error: the sweep narrows run_dram per cell.
  SweepGrid grid;
  grid.devices = {"DDR4-3200"};
  grid.interleavers = {"none", "block", "triangular", "two-stage"};
  grid.channels = {"none"};
  FerSweepOptions o;
  o.base.frames = 1;
  o.base.run_dram = true;
  o.base.side = 64;
  o.base.symbols_per_burst = 8;
  o.base.dram_max_bursts_per_phase = 500;
  const auto records = run_fer_sweep(grid, o);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[0].result.dram_ran);  // none
  EXPECT_FALSE(records[1].result.dram_ran);  // block
  EXPECT_TRUE(records[2].result.dram_ran);   // triangular
  EXPECT_TRUE(records[3].result.dram_ran);   // two-stage
  EXPECT_GT(records[3].result.dram.write.stats.bursts, 0u);
}

TEST(FerSweep, GridIsCheckedBeforeAnyCellRuns) {
  // Each bad grid is refused with the text the bad cell itself would
  // throw, before the first cell runs: the progress callback, which
  // fires after every finished cell, never fires.
  SweepGrid grid;
  FerSweepOptions options;
  options.sweep.threads = 2;
  std::uint64_t cells_run = 0;
  options.sweep.progress = [&](const SweepProgress&) { ++cells_run; };
  options.base.frames = 1;
  const auto expect_refused = [&](const std::string& text) {
    try {
      run_fer_sweep(grid, options);
      ADD_FAILURE() << "grid accepted; expected " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), text);
    }
    EXPECT_EQ(cells_run, 0u) << text;
  };

  grid.devices = {"LPDDR5-8533"};
  grid.channels = {"bsc"};
  grid.rs_ks = {223, 224};
  expect_refused("fer sweep: invalid RS(255, 224)");
  grid.rs_ks = {223};
  grid.devices = {"NO-SUCH-DEVICE"};
  expect_refused("fer sweep: unknown device 'NO-SUCH-DEVICE'");

  // A cell that names no device, behind a good one: the grid names every
  // cell's device, even for an interleaver that never touches DRAM.
  grid.devices = {"DDR4-3200", ""};
  grid.interleavers = {"block"};
  options.base.side = 64;
  options.base.symbols_per_burst = 8;
  expect_refused("fer sweep: unknown device ''");

  // An unknown interleaver, an unknown channel ("trace" among them), and
  // an unknown mapping on a cell that runs the DRAM stage, each behind a
  // good cell.
  grid.devices = {"DDR4-3200"};
  grid.interleavers = {"triangular", "bogus"};
  expect_refused("pipeline: unknown interleaver 'bogus'");
  grid.interleavers = {"triangular"};
  grid.channels = {"bsc", "trace"};
  expect_refused("pipeline: unknown channel 'trace'");
  grid.channels = {"bsc"};
  grid.mapping_specs = {"optimized", "bogus"};
  expect_refused("make_mapping: unknown spec 'bogus'");
}

TEST(FerRecord, RowCarriesTheRecordAndStableRowDropsOnlyHostTiming) {
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  grid.interleavers = {"none", "block", "triangular", "two-stage"};
  grid.channels = {"bsc", "gilbert-elliott"};
  FerSweepOptions o;
  o.base.frames = 2;
  o.base.side = 64;
  o.base.symbols_per_burst = 8;
  o.base.dram_max_bursts_per_phase = 500;
  o.base.fade_fraction = 0.01;
  o.base.mean_burst_symbols = 200;
  o.sweep.threads = 2;
  const auto records = run_fer_sweep(grid, o);
  ASSERT_EQ(records.size(), 8u);

  std::uint64_t word_errors = 0;
  for (const FerRecord& r : records) {
    const Scenario& scenario = r.scenario;
    const PipelineResult& result = r.result;
    const std::string label = scenario.label();
    const Json row = fer_record(scenario, result);
    EXPECT_EQ(row.at("interleaver").as_string(), scenario.interleaver) << label;
    EXPECT_EQ(row.at("channel").as_string(), scenario.channel) << label;
    const auto expect_count = [&](const char* key, std::uint64_t value) {
      EXPECT_EQ(row.at(key).as_double(), static_cast<double>(value))
          << label << " " << key;
    };
    expect_count("rs_k", scenario.rs_k);
    expect_count("frame_symbols", result.frame_symbols);
    expect_count("code_words", result.code_words);
    expect_count("word_errors", result.word_errors);
    expect_count("frame_errors", result.frame_errors);
    expect_count("channel_symbol_errors", result.channel_symbol_errors);
    expect_count("corrected_symbols", result.corrected_symbols);
    expect_count("workspace_peak_bytes", result.workspace_peak_bytes);
    expect_count("steady_allocations", result.steady_allocations);
    expect_count("steady_frames", result.steady_frames);
    expect_count("channel_symbols", result.channel_symbols);
    expect_count("host_ns", result.host_ns);
    EXPECT_EQ(row.at("wer").as_double(), result.word_error_rate()) << label;
    EXPECT_EQ(row.at("fer").as_double(), result.frame_error_rate()) << label;
    word_errors += result.word_errors;

    // The DRAM keys belong to the DRAM-resident cells alone.
    const bool dram = dram_resident_interleaver(scenario.interleaver);
    EXPECT_EQ(result.dram_ran, dram) << label;
    for (const char* key :
         {"dram_throughput_gbps", "dram_bursts", "dram_sched_ns_per_pick"}) {
      EXPECT_EQ(row.contains(key), dram) << label << " " << key;
    }
    if (dram) {
      expect_count("dram_bursts", result.dram.total_bursts());
      EXPECT_EQ(row.at("dram_throughput_gbps").as_double(), result.dram_throughput_gbps)
          << label;
    }

    // The stable row is the row less exactly its host timing.
    std::set<std::string> dropped;
    const Json stable = perf::without_host_timing(row);
    for (const auto& [key, value] : row.as_object()) {
      if (!stable.contains(key)) {
        dropped.insert(key);
      } else {
        EXPECT_EQ(stable.at(key).dump(0), value.dump(0)) << label << " " << key;
      }
    }
    std::set<std::string> host_timing = {"host_ns", "channel_symbols_per_second"};
    if (dram) host_timing.insert("dram_sched_ns_per_pick");
    EXPECT_EQ(dropped, host_timing) << label;
  }
  EXPECT_GT(word_errors, 0u) << "no cell exercises a nonzero word count";
}

// ---------------------------------------------------------------------------
// Wire cursor
// ---------------------------------------------------------------------------

/// The word of each wire position from the interleavers' own inverse
/// permutations, one position at a time: the map WireCursor walks.
class InverseWords {
 public:
  explicit InverseWords(const PipelineConfig& c)
      : side_(c.side != 0 ? c.side : c.rs_n), n_(c.rs_n), rows_(!pipeline_streams(c)) {
    capacity_ = triangular_number(side_);
    if (c.interleaver == "triangular") {
      tri_.emplace(side_);
    } else if (c.interleaver == "block") {
      const std::uint64_t rows = side_ % 2 == 1 ? side_ : side_ + 1;
      block_.emplace(rows, capacity_ / rows);
    } else if (c.interleaver == "two-stage") {
      two_.emplace(side_, c.symbols_per_burst);
      capacity_ = two_->capacity_symbols();
    }
    words_ = rows_ ? side_ - (c.rs_n - c.rs_k) : capacity_ / n_;
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t words() const { return words_; }

  std::uint64_t word_of(std::uint64_t p) const {
    const std::uint64_t k = tri_     ? tri_->permute(p)  // an involution
                            : block_ ? block_->inverse(p)
                            : two_   ? two_->inverse(p)
                                     : p;
    return std::min(rows_ ? tri_row_of(side_, k) : k / n_, words_);
  }

 private:
  std::uint64_t side_;
  std::uint64_t n_;
  bool rows_;
  std::uint64_t capacity_ = 0;
  std::uint64_t words_ = 0;
  std::optional<interleaver::TriangularInterleaver> tri_;
  std::optional<interleaver::BlockInterleaver> block_;
  std::optional<interleaver::TwoStageInterleaver> two_;
};

PipelineConfig cursor_config(const std::string& interleaver, std::uint64_t side,
                             unsigned n, unsigned k, std::uint64_t spb = 64) {
  PipelineConfig c;
  c.interleaver = interleaver;
  c.side = side;
  c.rs_n = n;
  c.rs_k = k;
  c.symbols_per_burst = spb;
  c.run_dram = false;
  return c;
}

std::string describe(const PipelineConfig& c) {
  return c.interleaver + " side " + std::to_string(c.side) + " spb " +
         std::to_string(c.symbols_per_burst) + " RS(" + std::to_string(c.rs_n) + ", " +
         std::to_string(c.rs_k) + ")" + (pipeline_streams(c) ? " packed" : " rows");
}

/// Every kind in both layouts (two-stage is always packed), odd and even
/// block sides, and two-stage geometries with and without a partial tail
/// at power-of-two and other symbols per burst.
std::vector<PipelineConfig> cursor_geometries() {
  std::vector<PipelineConfig> out;
  for (const char* kind : {"none", "triangular", "block"}) {
    out.push_back(cursor_config(kind, 15, 15, 7));      // rows, t = 4
    out.push_back(cursor_config(kind, 255, 255, 223));  // rows, the default
    out.push_back(cursor_config(kind, 40, 15, 7));      // packed, sub-word tail
    out.push_back(cursor_config(kind, 41, 15, 7));      // packed, odd side
    out.push_back(cursor_config(kind, 300, 255, 223));  // packed, several words
  }
  out.push_back(cursor_config("two-stage", 64, 255, 223, 170));  // 40-burst tail
  out.push_back(cursor_config("two-stage", 64, 255, 191, 64));   // 32-burst tail
  out.push_back(cursor_config("two-stage", 9, 15, 7, 5));        // no tail
  out.push_back(cursor_config("two-stage", 10, 7, 3, 3));        // 1-burst tail
  out.push_back(cursor_config("two-stage", 20, 15, 7, 1));       // no transpose
  return out;
}

TEST(PipelineCursor, EveryWirePositionMatchesTheInterleaversInverses) {
  for (const PipelineConfig& c : cursor_geometries()) {
    const InverseWords ref(c);
    WireCursor cursor(c);
    ASSERT_EQ(cursor.capacity(), ref.capacity()) << describe(c);
    ASSERT_EQ(cursor.words(), ref.words()) << describe(c);
    std::uint64_t mismatches = 0;
    std::uint64_t padding = 0;
    for (std::uint64_t p = 0; p < ref.capacity(); ++p) {
      const std::uint64_t want = ref.word_of(p);
      const std::uint64_t got = cursor.word_of(p);
      padding += want == ref.words();
      if (got != want && mismatches++ == 0) {
        ADD_FAILURE() << describe(c) << ": position " << p << " maps to word " << got
                      << ", the inverse says " << want;
      }
    }
    EXPECT_EQ(mismatches, 0u) << describe(c);
    // Padding: the packed layout's sub-word tail, or the row layout's
    // n - k parity rows, whose lengths run 1..n - k.
    EXPECT_EQ(padding, pipeline_streams(c) ? ref.capacity() - ref.words() * c.rs_n
                                           : triangular_number(c.rs_n - c.rs_k))
        << describe(c);
  }
}

TEST(PipelineCursor, RisingSubsetsAcrossFramesAndBackwardSteps) {
  // One cursor serves a whole run: each frame's events rise, the next
  // frame starts behind the last event, and any position behind the
  // cursor restarts it. Sparse, dense and fade-like runs of consecutive
  // positions, over four frames per geometry.
  Rng rng(20240417);
  for (const PipelineConfig& c : cursor_geometries()) {
    const InverseWords ref(c);
    WireCursor cursor(c);
    const std::uint64_t capacity = ref.capacity();
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    const auto check = [&](std::uint64_t p) {
      ++checked;
      const std::uint64_t want = ref.word_of(p);
      const std::uint64_t got = cursor.word_of(p);
      if (got != want && mismatches++ == 0) {
        ADD_FAILURE() << describe(c) << ": position " << p << " maps to word " << got
                      << ", the inverse says " << want;
      }
    };
    for (int frame = 0; frame < 4; ++frame) {
      const std::uint64_t mean_gap = std::uint64_t{1} << rng.uniform(12);
      std::uint64_t last = 0;
      for (std::uint64_t p = rng.uniform(mean_gap); p < capacity;
           p += 1 + rng.uniform(2 * mean_gap)) {
        // A fade: a run of consecutive positions.
        const std::uint64_t run = rng.bernoulli(0.2) ? 1 + rng.uniform(300) : 1;
        for (std::uint64_t r = 0; r < run && p < capacity; ++r, ++p) check(p);
        last = p - 1;
      }
      // A step back inside the frame, then forward again.
      const std::uint64_t back = rng.uniform(last + 1);
      check(back);
      for (std::uint64_t p = back; p < capacity && p < back + 50; ++p) check(p);
    }
    EXPECT_EQ(mismatches, 0u) << describe(c);
    EXPECT_GT(checked, 4u) << describe(c);
  }
}

TEST(PipelineCursor, RecordsDoNotDependOnEventOrder) {
  // FixedEventsChannel emits its events in the order given, so the same
  // events sorted and reversed must give the same record.
  for (const char* kind : {"none", "triangular", "block", "two-stage"}) {
    for (const std::uint64_t side : {std::uint64_t{0}, std::uint64_t{300}}) {
      PipelineConfig c;
      c.interleaver = kind;
      c.side = side;
      c.symbols_per_burst = 8;
      c.frames = 3;
      c.run_dram = false;
      const std::uint64_t capacity = WireCursor(c).capacity();
      Rng rng(7);
      std::vector<source::Corruption> events;
      for (std::uint64_t p = rng.uniform(400); p < c.frames * capacity;
           p += 1 + rng.uniform(400)) {
        const std::uint64_t run = rng.bernoulli(0.1) ? 1 + rng.uniform(200) : 1;
        for (std::uint64_t r = 0; r < run && p < c.frames * capacity; ++r, ++p) {
          events.push_back({p, 1});
        }
      }
      source::ErrorSource sorted(std::make_unique<channel::FixedEventsChannel>(events), 0);
      std::reverse(events.begin(), events.end());
      source::ErrorSource reversed(std::make_unique<channel::FixedEventsChannel>(events),
                                   0);
      const PipelineResult a = run_frames(c, &sorted);
      const PipelineResult b = run_frames(c, &reversed);
      const std::string what = describe(c);
      EXPECT_EQ(a.channel_symbol_errors, events.size()) << what;
      EXPECT_EQ(b.channel_symbol_errors, events.size()) << what;
      EXPECT_EQ(a.word_errors, b.word_errors) << what;
      EXPECT_EQ(a.frame_errors, b.frame_errors) << what;
      EXPECT_EQ(a.corrected_symbols, b.corrected_symbols) << what;
      EXPECT_GT(a.corrected_symbols + a.word_errors, 0u) << what;
    }
  }
}

TEST(PipelineCursor, RefusesWhatNoFrameCanHold) {
  const auto expect_refused = [](const PipelineConfig& c, const std::string& text) {
    try {
      WireCursor cursor(c);
      ADD_FAILURE() << describe(c) << " accepted; expected " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), text);
    }
  };
  expect_refused(cursor_config("helical", 0, 255, 223),
                 "pipeline: unknown interleaver 'helical'");
  expect_refused(cursor_config("two-stage", 64, 255, 223, 0),
                 "pipeline: symbols_per_burst must be > 0");
  // T(10) = 55 symbols, T(2) bursts of 8 = 24 symbols: under one word.
  expect_refused(cursor_config("triangular", 10, 255, 223),
                 "pipeline: side too small for one RS code word");
  expect_refused(cursor_config("two-stage", 2, 255, 223, 8),
                 "pipeline: side too small for one RS code word");
  // T(2^33) symbols, and T(2^31) bursts of 2^10 symbols, pass 2^64.
  expect_refused(cursor_config("none", std::uint64_t{1} << 33, 255, 223),
                 "pipeline: side too large");
  expect_refused(cursor_config("two-stage", std::uint64_t{1} << 31, 255, 223, 1024),
                 "pipeline: side too large");
}

// ---------------------------------------------------------------------------
// Error sources
// ---------------------------------------------------------------------------

TEST(PipelineTrace, ShortenedRowMiscorrectionIsAWordError) {
  // A row-aligned word i carries word symbols [i, n); its prefix [0, i)
  // is an implicit zero. Take the codeword d = encode(x, 0, ..., 0) and
  // send d's symbols on [1, n) as the error of row 1: the received word
  // then sits at distance 1 from (row-1 word) + d, a codeword that
  // differs from the sent one only in the prefix and the parity. A
  // decoder "corrects" position 0 and hands back the sent payload
  // [1, k), but the error weight is 2t, so the word is lost all the same.
  PipelineConfig c;
  c.interleaver = "none";  // wire position == code-word stream position
  c.frames = 1;
  c.run_dram = false;
  ASSERT_FALSE(pipeline_streams(c));
  const fec::ReedSolomon rs(c.rs_n, c.rs_k);
  std::vector<std::uint8_t> data(rs.k(), 0);
  data[0] = 0x5A;
  const auto d = rs.encode(data);

  std::vector<source::Corruption> events;
  const std::uint64_t row1 = c.rs_n;  // row 0 holds n symbols
  for (unsigned j = 1; j < rs.n(); ++j) {
    if (d[j] != 0) events.push_back({row1 + (j - 1), d[j]});
  }
  EXPECT_EQ(events.size(), 2u * rs.t());
  source::ErrorSource src(std::make_unique<channel::FixedEventsChannel>(events), 0);
  const auto r = run_frames(c, &src);

  EXPECT_EQ(r.channel_symbol_errors, events.size());
  EXPECT_EQ(r.word_errors, 1u);
  EXPECT_EQ(r.frame_errors, 1u);
  EXPECT_EQ(r.corrected_symbols, 0u);

  // The decoder really does miscorrect into the prefix: the received row
  // decodes, with one correction, to a word whose payload matches.
  std::vector<std::uint8_t> sent(rs.k(), 0);
  for (unsigned j = 1; j < rs.k(); ++j) sent[j] = static_cast<std::uint8_t>(j);
  auto received = rs.encode(sent);
  for (unsigned j = 1; j < rs.n(); ++j) received[j] ^= d[j];
  const auto res = rs.decode(received);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.corrected_symbols, 1u);
  EXPECT_NE(received[0], 0) << "the correction landed in the zero prefix";
  EXPECT_TRUE(std::equal(sent.begin() + 1, sent.end(), received.begin() + 1));
}

TEST(MakeSource, ValidatesConfig) {
  PipelineConfig c;
  c.run_dram = false;
  c.channel = "none";
  EXPECT_EQ(make_source(c), nullptr);
  for (const char* unknown : {"trace", "bogus"}) {
    c.channel = unknown;
    EXPECT_THROW(make_source(c), std::invalid_argument) << unknown;
  }
  c.channel = "gilbert-elliott";
  EXPECT_NE(make_source(c), nullptr);
}

TEST(MakeChannel, FactoryCoversAllKinds) {
  PipelineConfig c;
  c.channel = "none";
  EXPECT_EQ(make_channel(c), nullptr);
  c.channel = "bsc";
  EXPECT_STREQ(make_channel(c)->name(), "symmetric");
  c.channel = "gilbert-elliott";
  EXPECT_STREQ(make_channel(c)->name(), "gilbert-elliott");
  c.channel = "leo";
  EXPECT_STREQ(make_channel(c)->name(), "leo-fading");
  c.channel = "bogus";
  EXPECT_THROW(make_channel(c), std::invalid_argument);
}

}  // namespace
}  // namespace tbi::sim
