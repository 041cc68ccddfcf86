/// \file test_dsweep.cpp
/// Fault-tolerant sweep backend tests. The worker processes these tests
/// spawn are re-invocations of the test binary itself (tests/main.cpp
/// dispatches --worker-fd and registers the test kernels), so every
/// recovery path runs against real fork/exec workers, not mocks.
#include "sim/dsweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sim/manifest.hpp"
#include "sim/pipeline.hpp"

namespace tbi::sim {
namespace {

constexpr std::uint64_t kCells = 24;
constexpr std::uint64_t kSeed = 7;

Json echo_job() {
  Json job;
  job["tag"] = "t";
  // Stretch each cell to ~2 ms so count-triggered faults always fire
  // before a sibling drains the whole grid.
  job["sleep_us"] = 2000;
  return job;
}

/// Clean single-process reference for the echo job.
std::vector<std::string> echo_reference() {
  DsweepOptions opt;
  opt.workers = 1;
  opt.threads = 2;
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  std::vector<std::string> dumps;
  for (const auto& r : res.records) dumps.push_back(r.dump(0));
  return dumps;
}

void expect_matches_reference(const DsweepResult& res) {
  const auto ref = echo_reference();
  ASSERT_EQ(res.records.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_TRUE(res.done[i]) << "cell " << i << " missing";
    EXPECT_EQ(res.records[i].dump(0), ref[i]) << "cell " << i;
  }
}

DsweepOptions fast_recovery_options(unsigned workers) {
  DsweepOptions opt;
  opt.workers = workers;
  opt.threads = 2;
  opt.backoff_base_ms = 1;  // keep injected-crash tests fast
  return opt;
}

std::string temp_manifest(const char* tag) {
  return ::testing::TempDir() + "dsweep_" + tag + "_" +
         std::to_string(::getpid()) + ".manifest";
}

TEST(Dsweep, InProcessRecordsCarryPerCellSeeds) {
  DsweepOptions opt;
  opt.workers = 1;
  opt.threads = 4;
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  ASSERT_EQ(res.records.size(), kCells);
  EXPECT_FALSE(res.stats.interrupted);
  EXPECT_FALSE(res.stats.degraded_inprocess);
  for (std::uint64_t i = 0; i < kCells; ++i) {
    ASSERT_TRUE(res.done[i]);
    EXPECT_EQ(res.records[i].at("index").as_double(), static_cast<double>(i));
    EXPECT_EQ(res.records[i].at("seed").as_string(),
              std::to_string(job_seed(kSeed, i)));
  }
}

TEST(Dsweep, MultiProcessMatchesInProcessByteForByte) {
  const auto res =
      dsweep_run("test-echo", echo_job(), kCells, kSeed, fast_recovery_options(3));
  EXPECT_EQ(res.stats.workers, 3u);
  EXPECT_EQ(res.stats.worker_restarts, 0u);
  expect_matches_reference(res);
}

TEST(Dsweep, KilledWorkerIsRespawnedAndResultUnchanged) {
  auto opt = fast_recovery_options(3);
  opt.faults = FaultSpec::parse("kill-after=2@0");
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  EXPECT_GE(res.stats.worker_restarts, 1u);
  EXPECT_GE(res.stats.cells_reassigned, 1u);
  EXPECT_FALSE(res.stats.interrupted);
  expect_matches_reference(res);
}

TEST(Dsweep, HungWorkerHitsHeartbeatTimeoutAndResultUnchanged) {
  auto opt = fast_recovery_options(2);
  opt.heartbeat_interval_ms = 25;
  opt.heartbeat_timeout_ms = 300;
  opt.faults = FaultSpec::parse("stall-after=1@0");
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  EXPECT_GE(res.stats.heartbeat_timeouts, 1u);
  EXPECT_GE(res.stats.worker_restarts, 1u);
  expect_matches_reference(res);
}

TEST(Dsweep, CorruptBatchIsRejectedNeverMerged) {
  auto opt = fast_recovery_options(2);
  opt.faults = FaultSpec::parse("corrupt-batch=2@0");
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  EXPECT_GE(res.stats.batches_rejected, 1u);
  EXPECT_GE(res.stats.worker_restarts, 1u);
  expect_matches_reference(res);
}

TEST(Dsweep, TruncatedBatchIsDiscardedAndRecomputed) {
  auto opt = fast_recovery_options(2);
  opt.faults = FaultSpec::parse("truncate-batch=2@0");
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  EXPECT_GE(res.stats.worker_restarts, 1u);
  expect_matches_reference(res);
}

TEST(Dsweep, SpawnFailureDegradesToInProcess) {
  auto opt = fast_recovery_options(4);
  opt.faults = FaultSpec::parse("spawn-fail");
  const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  EXPECT_TRUE(res.stats.degraded_inprocess);
  EXPECT_EQ(res.stats.workers, 0u);
  expect_matches_reference(res);
}

TEST(Dsweep, AbortIsCheckpointedAndResumeCompletesIdentically) {
  const std::string manifest = temp_manifest("resume");
  std::remove(manifest.c_str());

  auto opt = fast_recovery_options(2);
  opt.manifest_path = manifest;
  opt.faults = FaultSpec::parse("abort-after=3");
  const auto partial = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
  EXPECT_TRUE(partial.stats.interrupted);
  std::uint64_t done = 0;
  for (const bool d : partial.done) done += d ? 1 : 0;
  EXPECT_GE(done, 3u);
  EXPECT_LT(done, kCells);

  auto resume = fast_recovery_options(2);
  resume.manifest_path = manifest;
  resume.resume = true;
  const auto full = dsweep_run("test-echo", echo_job(), kCells, kSeed, resume);
  EXPECT_FALSE(full.stats.interrupted);
  EXPECT_EQ(full.stats.resumed_cells, done);
  expect_matches_reference(full);
  std::remove(manifest.c_str());
}

TEST(Dsweep, ResumeRejectsManifestFromDifferentRun) {
  const std::string manifest = temp_manifest("mismatch");
  std::remove(manifest.c_str());

  auto opt = fast_recovery_options(1);
  opt.manifest_path = manifest;
  opt.faults = FaultSpec::parse("abort-after=2");
  (void)dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);

  auto resume = fast_recovery_options(1);
  resume.manifest_path = manifest;
  resume.resume = true;
  // Different base seed => different fingerprint: silently mixing the old
  // records would corrupt the sweep, so this must throw.
  EXPECT_THROW(dsweep_run("test-echo", echo_job(), kCells, kSeed + 1, resume),
               std::runtime_error);
  std::remove(manifest.c_str());
}

TEST(Dsweep, NonPositiveWorkerTimeoutIsRejected) {
  DsweepOptions opt;
  opt.heartbeat_timeout_ms = 0;
  EXPECT_THROW(dsweep_run("test-echo", echo_job(), 4, kSeed, opt),
               std::invalid_argument);
}

TEST(Dsweep, UnknownKernelThrows) {
  DsweepOptions opt;
  EXPECT_THROW(dsweep_run("no-such-kernel", Json(), 1, 1, opt),
               std::invalid_argument);
}

TEST(Dsweep, ZeroCellsReturnsEmptyWithoutSpawningAnything) {
  auto opt = fast_recovery_options(4);
  const auto res = dsweep_run("test-echo", echo_job(), 0, kSeed, opt);
  EXPECT_TRUE(res.records.empty());
  EXPECT_TRUE(res.done.empty());
  EXPECT_EQ(res.stats.workers, 0u);
}

TEST(Dsweep, DeterministicKernelFailurePropagatesFromWorkers) {
  Json job;
  job["fail_at"] = 1;
  auto opt = fast_recovery_options(2);
  EXPECT_THROW(dsweep_run("test-fail-at", job, 4, kSeed, opt),
               std::invalid_argument);
}

TEST(Dsweep, DeterministicKernelFailurePropagatesInProcess) {
  Json job;
  job["fail_at"] = 1;
  DsweepOptions opt;
  opt.workers = 1;
  opt.threads = 2;
  EXPECT_THROW(dsweep_run("test-fail-at", job, 4, kSeed, opt),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Sharded sweeps: any I/N partition must merge back byte-identically.
// ---------------------------------------------------------------------------

TEST(DsweepShard, RangesTileTheGridExactly) {
  for (const std::uint64_t cells : {std::uint64_t(1), std::uint64_t(7),
                                    std::uint64_t(24), std::uint64_t(100)}) {
    for (const unsigned n : {1u, 2u, 3u, 5u, 24u}) {
      std::uint64_t next = 0;
      for (unsigned i = 0; i < n; ++i) {
        const auto r = shard_range(cells, i, n);
        EXPECT_EQ(r.begin, next) << cells << " cells, shard " << i << "/" << n;
        EXPECT_LE(r.size(), cells / n + 1);
        next = r.end;
      }
      EXPECT_EQ(next, cells) << cells << " cells over " << n << " shards";
    }
  }
  EXPECT_THROW(shard_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW(shard_range(10, 3, 3), std::invalid_argument);
}

TEST(DsweepShard, ParseShardSpecValidatesInput) {
  unsigned index = 9;
  unsigned count = 9;
  parse_shard_spec("1/3", &index, &count);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(count, 3u);
  for (const char* bad : {"", "1", "/", "1/", "/3", "a/3", "1/b", "3/3", "4/3",
                          "0/0", "1/3/5", "-1/3"}) {
    EXPECT_THROW(parse_shard_spec(bad, &index, &count), std::invalid_argument)
        << "spec '" << bad << "'";
  }
}

TEST(DsweepShard, AnyPartitionMergesByteIdenticalToUnsharded) {
  for (const unsigned n : {2u, 3u, 5u}) {
    std::vector<std::string> manifests;
    for (unsigned i = 0; i < n; ++i) {
      const std::string tag =
          "shard" + std::to_string(n) + "_" + std::to_string(i);
      const std::string m = temp_manifest(tag.c_str());
      std::remove(m.c_str());
      manifests.push_back(m);

      DsweepOptions opt;
      opt.workers = 1;
      opt.threads = 2;
      opt.manifest_path = m;
      opt.shard_index = i;
      opt.shard_count = n;
      const auto res = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);
      EXPECT_FALSE(res.stats.interrupted);
      // A shard computes exactly its contiguous range, nothing else.
      const auto range = shard_range(kCells, i, n);
      for (std::uint64_t c = 0; c < kCells; ++c) {
        EXPECT_EQ(static_cast<bool>(res.done[c]), range.contains(c))
            << "shard " << i << "/" << n << ", cell " << c;
      }
    }

    const auto merged =
        dsweep_merge_shards("test-echo", echo_job(), kCells, kSeed, manifests);
    expect_matches_reference(merged);
    for (const auto& m : manifests) std::remove(m.c_str());
  }
}

TEST(DsweepShard, TornTailShardResumesAndMergesIdentically) {
  const std::string m0 = temp_manifest("torn0");
  const std::string m1 = temp_manifest("torn1");
  std::remove(m0.c_str());
  std::remove(m1.c_str());

  // Shard 0 is preempted mid-run...
  auto opt0 = fast_recovery_options(1);
  opt0.manifest_path = m0;
  opt0.shard_index = 0;
  opt0.shard_count = 2;
  opt0.faults = FaultSpec::parse("abort-after=2");
  const auto partial = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt0);
  EXPECT_TRUE(partial.stats.interrupted);

  // ...and the crash tears the journal's final line.
  {
    std::FILE* f = std::fopen(m0.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"cell\": 999, \"rec", f);
    std::fclose(f);
  }

  auto resume0 = fast_recovery_options(1);
  resume0.manifest_path = m0;
  resume0.shard_index = 0;
  resume0.shard_count = 2;
  resume0.resume = true;
  const auto full0 = dsweep_run("test-echo", echo_job(), kCells, kSeed, resume0);
  EXPECT_FALSE(full0.stats.interrupted);
  EXPECT_GE(full0.stats.resumed_cells, 2u);

  auto opt1 = fast_recovery_options(1);
  opt1.manifest_path = m1;
  opt1.shard_index = 1;
  opt1.shard_count = 2;
  const auto full1 = dsweep_run("test-echo", echo_job(), kCells, kSeed, opt1);
  EXPECT_FALSE(full1.stats.interrupted);

  const auto merged =
      dsweep_merge_shards("test-echo", echo_job(), kCells, kSeed, {m0, m1});
  expect_matches_reference(merged);
  std::remove(m0.c_str());
  std::remove(m1.c_str());
}

TEST(DsweepShard, MergeRejectsForeignManifest) {
  const std::string m0 = temp_manifest("foreign0");
  const std::string m1 = temp_manifest("foreign1");
  std::remove(m0.c_str());
  std::remove(m1.c_str());

  auto opt = fast_recovery_options(1);
  opt.manifest_path = m0;
  opt.shard_index = 0;
  opt.shard_count = 2;
  (void)dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);

  // Shard 1 computed under a different base seed: merging it would mix
  // two different runs, exactly like resuming from a foreign manifest.
  opt.manifest_path = m1;
  opt.shard_index = 1;
  (void)dsweep_run("test-echo", echo_job(), kCells, kSeed + 1, opt);

  EXPECT_THROW(
      dsweep_merge_shards("test-echo", echo_job(), kCells, kSeed, {m0, m1}),
      std::runtime_error);
  std::remove(m0.c_str());
  std::remove(m1.c_str());
}

TEST(DsweepShard, MergeRequiresFullCoverage) {
  const std::string m0 = temp_manifest("coverage0");
  std::remove(m0.c_str());

  auto opt = fast_recovery_options(1);
  opt.manifest_path = m0;
  opt.shard_index = 0;
  opt.shard_count = 2;
  (void)dsweep_run("test-echo", echo_job(), kCells, kSeed, opt);

  // Half the grid is missing: an unfinished fleet must be an error, not
  // a silently truncated result.
  EXPECT_THROW(dsweep_merge_shards("test-echo", echo_job(), kCells, kSeed, {m0}),
               std::runtime_error);
  EXPECT_THROW(dsweep_merge_shards("test-echo", echo_job(), kCells, kSeed,
                                   {m0, "/nonexistent/dir/x.manifest"}),
               std::runtime_error);
  std::remove(m0.c_str());
}

// ---------------------------------------------------------------------------
// FER integration: the distributed path must reproduce run_fer_sweep.
// ---------------------------------------------------------------------------

TEST(DsweepFer, DistributedSweepMatchesInProcessSweep) {
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  grid.interleavers = {"none", "block"};
  grid.channels = {"bsc", "gilbert-elliott"};
  grid.rs_ks = {223, 191};

  FerSweepOptions options;
  options.sweep.threads = 2;
  options.sweep.base_seed = 11;
  options.base.frames = 2;
  options.base.side = 64;
  options.base.run_dram = false;

  const auto reference = run_fer_sweep(grid, options);

  DsweepOptions dist;
  dist.workers = 3;
  dist.backoff_base_ms = 1;
  const auto res = run_fer_sweep_dist(grid, options, dist);

  ASSERT_EQ(res.cells.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(res.done[i]);
    const auto& a = reference[i];
    const auto& b = res.cells[i];
    EXPECT_EQ(a.scenario.label(), b.scenario.label());
    EXPECT_EQ(a.result.frames, b.result.frames);
    EXPECT_EQ(a.result.code_words, b.result.code_words);
    EXPECT_EQ(a.result.word_errors, b.result.word_errors);
    EXPECT_EQ(a.result.frame_errors, b.result.frame_errors);
    EXPECT_EQ(a.result.channel_symbol_errors, b.result.channel_symbol_errors);
    EXPECT_EQ(a.result.corrected_symbols, b.result.corrected_symbols);
    EXPECT_EQ(a.result.frame_symbols, b.result.frame_symbols);
    EXPECT_EQ(a.result.workspace_peak_bytes, b.result.workspace_peak_bytes);
    EXPECT_EQ(a.result.steady_allocations, b.result.steady_allocations);
    EXPECT_EQ(a.result.channel_symbols, b.result.channel_symbols);
    EXPECT_EQ(a.result.dram_ran, b.result.dram_ran);
  }
}

TEST(DsweepFer, JobConfigFingerprintIsStable) {
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  FerSweepOptions options;
  const Json a = fer_job_config(grid, options);
  const Json b = fer_job_config(grid, options);
  EXPECT_EQ(sweep_fingerprint("fer", a, grid.size(), 1),
            sweep_fingerprint("fer", b, grid.size(), 1));
}

TEST(DsweepFer, CellRecordRoundTripsThroughWireJson) {
  Scenario s;
  s.device = "LPDDR5-8533";
  s.interleaver = "two-stage";
  s.channel = "leo";
  s.rs_k = 191;
  s.symbols_per_burst = 64;
  PipelineResult r;
  r.frames = 4;
  r.code_words = 123;
  r.word_errors = 5;
  r.frame_errors = 2;
  r.channel_symbol_errors = 999;
  r.corrected_symbols = 321;
  r.frame_symbols = 2080;
  r.workspace_peak_bytes = 65536;
  r.host_ns = 123456789;
  r.steady_allocations = 0;
  r.steady_frames = 3;
  r.channel_symbols = 8320;
  r.dram_ran = false;

  const Json wire = fer_cell_to_json(s, r);
  // Round trip through dump/parse exactly as the socket does.
  const FerCell back = fer_cell_from_json(Json::parse(wire.dump(0)));
  EXPECT_EQ(back.scenario.label(), s.label());
  EXPECT_EQ(back.result.code_words, r.code_words);
  EXPECT_EQ(back.result.word_errors, r.word_errors);
  EXPECT_EQ(back.result.frame_errors, r.frame_errors);
  EXPECT_EQ(back.result.channel_symbol_errors, r.channel_symbol_errors);
  EXPECT_EQ(back.result.workspace_peak_bytes, r.workspace_peak_bytes);
  EXPECT_EQ(back.result.host_ns, r.host_ns);
  EXPECT_FALSE(back.result.dram_ran);
}

TEST(DsweepFer, SliceRecordRoundTripsThroughWireJson) {
  Scenario s;
  s.device = "LPDDR5-8533";
  s.interleaver = "two-stage";
  s.channel = "gilbert-elliott";
  s.rs_k = 223;
  s.symbols_per_burst = 16;
  PipelineSliceResult r;
  r.slice = 2;
  r.num_slices = 4;
  r.frames = 3;
  r.channel_symbols = 1'000'000;
  r.channel_symbol_errors = 2;
  r.workspace_peak_bytes = 70000;
  r.host_ns = 424242;
  r.hits = {{0, 5, 0x80}, {2, 12'502'499, 0xFF}};

  const Json wire = fer_slice_to_json(s, r);
  const PipelineSliceResult back = fer_slice_from_json(Json::parse(wire.dump(0)));
  EXPECT_EQ(back.slice, r.slice);
  EXPECT_EQ(back.num_slices, r.num_slices);
  EXPECT_EQ(back.frames, r.frames);
  EXPECT_EQ(back.channel_symbols, r.channel_symbols);
  EXPECT_EQ(back.channel_symbol_errors, r.channel_symbol_errors);
  EXPECT_EQ(back.workspace_peak_bytes, r.workspace_peak_bytes);
  EXPECT_EQ(back.host_ns, r.host_ns);
  ASSERT_EQ(back.hits.size(), r.hits.size());
  for (std::size_t i = 0; i < r.hits.size(); ++i) {
    EXPECT_EQ(back.hits[i].frame, r.hits[i].frame);
    EXPECT_EQ(back.hits[i].input_index, r.hits[i].input_index);
    EXPECT_EQ(back.hits[i].flip, r.hits[i].flip);
  }

  // A torn hit array (not a multiple of the triplet width) must be
  // rejected, not silently truncated.
  Json torn = Json::parse(wire.dump(0));
  Json::Array hits = torn.at("slice").at("hits").as_array();
  hits.pop_back();
  torn["slice"]["hits"] = Json(hits);
  EXPECT_THROW(fer_slice_from_json(torn), std::invalid_argument);
}

TEST(DsweepFer, JobConfigOmitsSliceKeysWhenUnsliced) {
  // frame_slices == 1 adds no slice keys: the config feeds the run
  // fingerprint, which for an unsliced run must not depend on slicing.
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  FerSweepOptions options;
  const Json unsliced = fer_job_config(grid, options);
  EXPECT_FALSE(unsliced.contains("frame_slices"));
  EXPECT_FALSE(unsliced.contains("base_seed"));
  options.frame_slices = 4;
  const Json sliced = fer_job_config(grid, options);
  ASSERT_TRUE(sliced.contains("frame_slices"));
  EXPECT_EQ(sliced.at("frame_slices").as_double(), 4.0);
  // Json numbers are doubles; the 64-bit seed rides as a string.
  EXPECT_EQ(sliced.at("base_seed").as_string(),
            std::to_string(options.sweep.base_seed));
}

TEST(DsweepFer, ChunkKeyOfOlderJobConfigsIsIgnored) {
  // Older drivers wrote a "stream_chunk_symbols" key into the base
  // config; the knob is gone, so the key is no longer written, and a job
  // config that still carries it runs exactly like one that does not.
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  grid.interleavers = {"none", "two-stage"};
  grid.channels = {"gilbert-elliott"};
  grid.rs_ks = {223};
  FerSweepOptions options;
  options.sweep.threads = 1;
  options.sweep.base_seed = 5;
  options.base.frames = 2;
  options.base.side = 64;
  options.base.symbols_per_burst = 8;
  options.base.run_dram = false;
  // Dense fades (about 20 per cell), so every cell has errors to compare
  // whatever the seed: at the default 2% duty cycle and 400-symbol fades
  // most seeds leave the 4 k-symbol "none" cell clean.
  options.base.fade_fraction = 0.2;
  options.base.mean_burst_symbols = 50;

  Json job = fer_job_config(grid, options);
  EXPECT_FALSE(job.at("base").contains("stream_chunk_symbols"));
  job["base"]["stream_chunk_symbols"] = 4096;

  dsweep_register_builtin_kernels();
  DsweepOptions opt;
  opt.workers = 1;
  opt.threads = 1;
  const auto res = dsweep_run("fer", job, grid.size(), options.sweep.base_seed, opt);
  const auto reference = run_fer_sweep(grid, options);
  ASSERT_EQ(res.records.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(res.done[i]);
    const FerCell cell = fer_cell_from_json(res.records[i]);
    const PipelineResult& a = reference[i].result;
    EXPECT_GT(a.channel_symbol_errors, 0u) << i;
    EXPECT_EQ(cell.result.channel_symbol_errors, a.channel_symbol_errors) << i;
    EXPECT_EQ(cell.result.word_errors, a.word_errors) << i;
    EXPECT_EQ(cell.result.corrected_symbols, a.corrected_symbols) << i;
    EXPECT_EQ(cell.result.code_words, a.code_words) << i;
  }
}

TEST(DsweepFer, ManifestWithoutChannelDrawStampIsRefused) {
  // The job config carries the channel models' draw revision, so records
  // drawn by other channel code never enter a run: a manifest written
  // for the unstamped job (every manifest from before the stamp) is a
  // different run to --resume and --merge-shards, and the fer kernel
  // refuses to compute cells of an unstamped job.
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  grid.interleavers = {"none"};
  grid.channels = {"bsc", "gilbert-elliott"};
  grid.rs_ks = {223};
  FerSweepOptions options;
  options.sweep.threads = 1;
  options.sweep.base_seed = 3;
  options.base.frames = 2;
  options.base.side = 64;
  options.base.run_dram = false;

  const Json job = fer_job_config(grid, options);
  EXPECT_EQ(job.at("channel_draws").as_double(),
            static_cast<double>(channel::kDrawRevision));
  Json unstamped;
  unstamped["grid"] = job.at("grid");
  unstamped["base"] = job.at("base");

  // A complete manifest of the unstamped job, as an older binary writes it.
  const std::string path = temp_manifest("unstamped");
  std::remove(path.c_str());
  const std::uint64_t cells = grid.size();
  ManifestWriter writer;
  ASSERT_TRUE(writer.open(
      path, sweep_fingerprint("fer", unstamped, cells, options.sweep.base_seed),
      /*fresh=*/true));
  const auto reference = run_fer_sweep(grid, options);
  for (std::uint64_t i = 0; i < cells; ++i) {
    ASSERT_TRUE(writer.append(
        i, fer_cell_to_json(reference[i].scenario, reference[i].result)));
  }
  writer.close();

  DsweepOptions dist;
  dist.manifest_path = path;
  dist.resume = true;
  EXPECT_THROW(run_fer_sweep_dist(grid, options, dist), std::runtime_error);
  EXPECT_THROW(run_fer_merge_shards(grid, options, {path}), std::runtime_error);
  std::remove(path.c_str());

  DsweepOptions opt;
  opt.workers = 1;
  opt.threads = 1;
  EXPECT_THROW(dsweep_run("fer", unstamped, cells, options.sweep.base_seed, opt),
               std::invalid_argument);
  Json older = job;
  older["channel_draws"] = static_cast<std::uint64_t>(channel::kDrawRevision - 1);
  EXPECT_THROW(dsweep_run("fer", older, cells, options.sweep.base_seed, opt),
               std::invalid_argument);
}

TEST(DsweepFer, PaperScaleFrameSplitsAcrossWorkersByteIdentical) {
  // The tentpole's distribution payoff: one side-5000 streaming frame
  // (25 M symbols) split into 4 intra-frame slices, run on 1, 2 and 4
  // worker processes, must merge to the same record bytes regardless of
  // worker count, and must match the in-process unsliced sweep on every
  // field the slice API pins (everything but workspace_peak_bytes and
  // host_ns).
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  grid.interleavers = {"two-stage"};
  grid.channels = {"gilbert-elliott"};
  grid.rs_ks = {223};

  FerSweepOptions options;
  options.sweep.threads = 2;
  options.sweep.base_seed = 29;
  options.base.frames = 1;
  options.base.side = 5000;
  options.base.symbols_per_burst = 2;
  options.base.fade_fraction = 0.001;
  options.base.mean_burst_symbols = 2000;
  options.base.error_rate_bad = 0.8;
  options.base.run_dram = false;

  const auto reference = run_fer_sweep(grid, options);
  ASSERT_EQ(reference.size(), 1u);
  const auto& ref = reference[0].result;
  ASSERT_GT(ref.channel_symbol_errors, 1000u);

  options.frame_slices = 4;
  std::vector<FerDistResult> runs;
  for (const unsigned workers : {1u, 2u, 4u}) {
    DsweepOptions dist;
    dist.workers = workers;
    dist.backoff_base_ms = 1;
    runs.push_back(run_fer_sweep_dist(grid, options, dist));
  }

  for (std::size_t w = 0; w < runs.size(); ++w) {
    ASSERT_EQ(runs[w].cells.size(), 1u);
    ASSERT_TRUE(runs[w].done[0]);
    const auto& got = runs[w].cells[0].result;
    EXPECT_EQ(got.frames, ref.frames) << "run " << w;
    EXPECT_EQ(got.code_words, ref.code_words) << "run " << w;
    EXPECT_EQ(got.word_errors, ref.word_errors) << "run " << w;
    EXPECT_EQ(got.frame_errors, ref.frame_errors) << "run " << w;
    EXPECT_EQ(got.channel_symbol_errors, ref.channel_symbol_errors) << "run " << w;
    EXPECT_EQ(got.corrected_symbols, ref.corrected_symbols) << "run " << w;
    EXPECT_EQ(got.frame_symbols, ref.frame_symbols) << "run " << w;
    EXPECT_EQ(got.channel_symbols, ref.channel_symbols) << "run " << w;
    EXPECT_EQ(got.steady_allocations, ref.steady_allocations) << "run " << w;
    EXPECT_EQ(got.dram_ran, ref.dram_ran) << "run " << w;
    // PR 5 streaming bound: the sliced path may hold its own hit
    // buffers, but never anything near the materialized triangle.
    EXPECT_GT(got.workspace_peak_bytes, 0u) << "run " << w;
    EXPECT_LT(got.workspace_peak_bytes, got.frame_symbols / 8) << "run " << w;
  }

  // Across worker counts the merged record is byte-identical including
  // the workspace peak — only wall time may differ.
  for (std::size_t w = 1; w < runs.size(); ++w) {
    const auto& a = runs[0].cells[0].result;
    const auto& b = runs[w].cells[0].result;
    EXPECT_EQ(a.word_errors, b.word_errors);
    EXPECT_EQ(a.frame_errors, b.frame_errors);
    EXPECT_EQ(a.channel_symbol_errors, b.channel_symbol_errors);
    EXPECT_EQ(a.corrected_symbols, b.corrected_symbols);
    EXPECT_EQ(a.workspace_peak_bytes, b.workspace_peak_bytes);
    EXPECT_EQ(a.steady_allocations, b.steady_allocations);
  }
}

}  // namespace
}  // namespace tbi::sim
