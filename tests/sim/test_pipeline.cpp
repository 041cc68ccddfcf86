#include "sim/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>

#include "fec/reed_solomon.hpp"
#include "source/trace.hpp"

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
  c.check_protocol = true;
  const auto r = run_pipeline(c);
  ASSERT_TRUE(r.dram_ran);
  // One 32640-byte triangular block = 510 bursts of 64 B -> side 32.
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
  c.check_protocol = true;
  const auto r = run_pipeline(c);

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
  // Covers the full interleaver axis including "two-stage" and the
  // symbols_per_burst axis: records must be identical for any thread
  // count.
  SweepGrid grid;
  grid.devices = {"DDR4-3200"};
  grid.interleavers = {"none", "triangular", "block", "two-stage"};
  grid.channels = {"bsc", "gilbert-elliott", "leo"};
  grid.rs_ks = {223, 239};
  grid.symbols_per_bursts = {4, 8};
  FerSweepOptions o;
  o.base.frames = 2;
  o.base.run_dram = false;
  o.base.side = 64;  // streaming path for every cell, small frames
  o.base.fade_fraction = 0.01;
  o.base.mean_burst_symbols = 200;
  o.sweep.base_seed = 5;

  o.sweep.threads = 1;
  const auto serial = run_fer_sweep(grid, o);
  o.sweep.threads = 4;
  const auto parallel = run_fer_sweep(grid, o);
  ASSERT_EQ(serial.size(), 48u);
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
  }
}

TEST(FerSweep, SymbolsPerBurstAxisReachesTwoStageCells) {
  SweepGrid grid;
  grid.devices = {"DDR4-3200"};
  grid.interleavers = {"two-stage"};
  grid.channels = {"gilbert-elliott"};
  grid.symbols_per_bursts = {4, 8};
  FerSweepOptions o;
  o.base.frames = 2;
  o.base.run_dram = false;
  o.base.side = 64;
  const auto records = run_fer_sweep(grid, o);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].config.symbols_per_burst, 4u);
  EXPECT_EQ(records[1].config.symbols_per_burst, 8u);
  EXPECT_EQ(records[0].result.frame_symbols, 2080u * 4u);
  EXPECT_EQ(records[1].result.frame_symbols, 2080u * 8u);
  EXPECT_NE(records[0].scenario.label(), records[1].scenario.label());
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

// ---------------------------------------------------------------------------
// Burst sources: trace record/replay and multi-link ingestion
// ---------------------------------------------------------------------------

TEST(PipelineTrace, RecordThenReplayReproducesTheRun) {
  // Record a live Gilbert-Elliott run to a burst trace, then replay the
  // trace through the same pipeline: every error counter must match, and
  // re-recording the replay must produce the identical event set (same
  // corruption positions and flips).
  const std::string trace = ::testing::TempDir() + "pipeline_trace_XXXXXX.txt";
  auto live_cfg = burst_config("triangular", 13);
  live_cfg.trace_record = trace;
  const auto live = run_pipeline(live_cfg);
  EXPECT_GT(live.channel_symbol_errors, 0u);

  PipelineConfig replay_cfg = live_cfg;
  replay_cfg.trace_record.clear();
  replay_cfg.channel = "trace";
  replay_cfg.trace_replay = trace;
  const std::string retrace = trace + ".again";
  replay_cfg.trace_record = retrace;
  const auto replayed = run_pipeline(replay_cfg);

  EXPECT_EQ(replayed.channel_symbol_errors, live.channel_symbol_errors);
  EXPECT_EQ(replayed.word_errors, live.word_errors);
  EXPECT_EQ(replayed.frame_errors, live.frame_errors);
  EXPECT_EQ(replayed.corrected_symbols, live.corrected_symbols);
  EXPECT_EQ(replayed.code_words, live.code_words);

  // Event-level identity: the replay's own recording is the same sorted
  // (position, flip) set as the original.
  std::ifstream a(trace), b(retrace);
  ASSERT_TRUE(a && b);
  auto ea = source::read_burst_trace(a);
  auto eb = source::read_burst_trace(b);
  EXPECT_FALSE(ea.empty());
  EXPECT_EQ(ea, eb);
  std::remove(trace.c_str());
  std::remove(retrace.c_str());
}

TEST(PipelineTrace, StreamingPathRecordsAndReplaysIdentically) {
  // Same round trip on the streaming frame layout (side != rs_n).
  const std::string trace = ::testing::TempDir() + "pipeline_trace_stream.txt";
  auto live_cfg = burst_config("two-stage", 29);
  live_cfg.side = 64;
  live_cfg.symbols_per_burst = 8;
  live_cfg.fade_fraction = 0.02;  // small frames: keep the burst count up
  live_cfg.frames = 5;
  live_cfg.trace_record = trace;
  const auto live = run_pipeline(live_cfg);
  EXPECT_GT(live.channel_symbol_errors, 0u);

  PipelineConfig replay_cfg = live_cfg;
  replay_cfg.trace_record.clear();
  replay_cfg.channel = "trace";
  replay_cfg.trace_replay = trace;
  const auto replayed = run_pipeline(replay_cfg);

  EXPECT_EQ(replayed.channel_symbol_errors, live.channel_symbol_errors);
  EXPECT_EQ(replayed.word_errors, live.word_errors);
  EXPECT_EQ(replayed.frame_errors, live.frame_errors);
  EXPECT_EQ(replayed.corrected_symbols, live.corrected_symbols);
  std::remove(trace.c_str());
}

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
  c.channel = "trace";
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
  const std::string trace = ::testing::TempDir() + "pipeline_miscorrection.trace";
  {
    std::ofstream out(trace);
    source::BurstTraceWriter writer(out);
    for (const auto& e : events) writer.record(e);
  }
  c.trace_replay = trace;
  const auto r = run_pipeline(c);
  std::remove(trace.c_str());

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

TEST(PipelineMultiLink, SingleLinkMatchesLegacySingleChannel) {
  // links = 1 must be byte-identical to the pre-source pipeline: the
  // single-link path hands the channel root seed to one ChannelSource.
  auto c = burst_config("triangular", 17);
  const auto base = run_pipeline(c);
  c.links = 1;
  const auto one_link = run_pipeline(c);
  EXPECT_EQ(one_link.channel_symbol_errors, base.channel_symbol_errors);
  EXPECT_EQ(one_link.word_errors, base.word_errors);
  EXPECT_EQ(one_link.corrected_symbols, base.corrected_symbols);
}

TEST(PipelineMultiLink, LinksChangeTheErrorProcess) {
  // N independent links interleave N distinct channel streams, so the
  // composite corruption pattern differs from any single link — but the
  // run stays deterministic and allocation-free in steady state.
  auto c = burst_config("triangular", 17);
  const auto single = run_pipeline(c);
  c.links = 4;
  const auto multi = run_pipeline(c);
  const auto multi_again = run_pipeline(c);

  EXPECT_GT(multi.channel_symbol_errors, 0u);
  EXPECT_NE(multi.channel_symbol_errors, single.channel_symbol_errors);
  EXPECT_EQ(multi.channel_symbol_errors, multi_again.channel_symbol_errors);
  EXPECT_EQ(multi.word_errors, multi_again.word_errors);
  EXPECT_EQ(multi.steady_allocations, 0u);
}

TEST(PipelineMultiLink, PhaseOffsetsShiftPerLinkStreams) {
  auto c = burst_config("triangular", 23);
  c.links = 3;
  const auto aligned = run_pipeline(c);
  c.link_phase_symbols = 10'000;
  const auto staggered = run_pipeline(c);
  EXPECT_GT(aligned.channel_symbol_errors, 0u);
  EXPECT_GT(staggered.channel_symbol_errors, 0u);
  EXPECT_NE(aligned.channel_symbol_errors, staggered.channel_symbol_errors);
}

TEST(PipelineMultiLink, StreamingPathSupportsLinks) {
  auto c = burst_config("two-stage", 31);
  c.side = 64;
  c.symbols_per_burst = 8;
  c.frames = 3;
  c.links = 4;
  const auto r = run_pipeline(c);
  EXPECT_GT(r.channel_symbol_errors, 0u);
  EXPECT_EQ(r.steady_allocations, 0u);
  EXPECT_EQ(r.channel_symbols,
            static_cast<std::uint64_t>(c.frames) * r.frame_symbols);
}

TEST(MakeSource, ValidatesConfig) {
  {
    PipelineConfig c;
    c.run_dram = false;
    c.links = 0;
    EXPECT_THROW(make_source(c), std::invalid_argument);
  }
  {
    PipelineConfig c;
    c.trace_replay = "whatever.txt";  // replay needs channel == "trace"
    EXPECT_THROW(make_source(c), std::invalid_argument);
  }
  {
    PipelineConfig c;
    c.channel = "trace";  // trace channel needs a replay file
    EXPECT_THROW(make_source(c), std::invalid_argument);
  }
  {
    PipelineConfig c;
    c.channel = "trace";
    c.trace_replay = ::testing::TempDir() + "does_not_exist.trace";
    EXPECT_THROW(make_source(c), std::runtime_error);
  }
  {
    PipelineConfig c;
    c.channel = "none";
    EXPECT_EQ(make_source(c), nullptr);
    c.trace_record = "anything.txt";  // nothing to record on a clean channel
    EXPECT_THROW(make_source(c), std::invalid_argument);
  }
  {
    PipelineConfig c;
    c.channel = "gilbert-elliott";
    c.links = 4;
    const auto src = make_source(c);
    ASSERT_NE(src, nullptr);
    EXPECT_STREQ(src->name(), "multi-link");
  }
}

TEST(FerSweep, LinksAxisExpandsAndStaysDeterministic) {
  SweepGrid grid;
  grid.devices = {"DDR4-3200"};
  grid.interleavers = {"triangular"};
  grid.channels = {"gilbert-elliott"};
  grid.links = {1, 4};
  FerSweepOptions o;
  o.base = burst_config("triangular", 0);
  o.base.frames = 3;
  o.base.run_dram = false;

  o.sweep.threads = 1;
  const auto serial = run_fer_sweep(grid, o);
  o.sweep.threads = 4;
  const auto parallel = run_fer_sweep(grid, o);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  EXPECT_EQ(serial[0].scenario.links, 1u);
  EXPECT_EQ(serial[1].scenario.links, 4u);
  EXPECT_EQ(serial[0].config.links, 1u);
  EXPECT_EQ(serial[1].config.links, 4u);
  EXPECT_NE(serial[0].scenario.label(), serial[1].scenario.label());
  EXPECT_NE(serial[0].result.channel_symbol_errors,
            serial[1].result.channel_symbol_errors);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.channel_symbol_errors,
              parallel[i].result.channel_symbol_errors) << i;
    EXPECT_EQ(serial[i].result.word_errors, parallel[i].result.word_errors) << i;
  }
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
