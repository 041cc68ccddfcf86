/// \file test_dsweep.cpp
/// Checkpointed sweep tests: per-cell seeds, preemption (the cancel flag
/// and the abort-after fault) with resume, sharding and merge, and the
/// FER sweep on top of it.
#include "sim/dsweep.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <set>
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
  return job;
}

/// Cheap deterministic cell: echoes its index and seed without touching
/// the simulator.
Json echo_cell(std::uint64_t index, std::uint64_t seed) {
  Json r;
  r["index"] = index;
  r["seed"] = std::to_string(seed);
  return r;
}

DsweepResult run_echo(const DsweepOptions& opt, std::uint64_t base_seed = kSeed) {
  return dsweep_run("test-echo", echo_job(), kCells, base_seed, opt, echo_cell);
}

DsweepOptions two_threads() {
  DsweepOptions opt;
  opt.threads = 2;
  return opt;
}

/// Clean, unsharded reference for the echo sweep.
std::vector<std::string> echo_reference() {
  const auto res = run_echo(two_threads());
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

std::set<std::uint64_t> done_cells(const DsweepResult& res) {
  std::set<std::uint64_t> done;
  for (std::uint64_t i = 0; i < res.done.size(); ++i) {
    if (res.done[i]) done.insert(i);
  }
  return done;
}

std::string temp_manifest(const char* tag) {
  return ::testing::TempDir() + "dsweep_" + tag + "_" +
         std::to_string(::getpid()) + ".manifest";
}

TEST(Dsweep, InProcessRecordsCarryPerCellSeeds) {
  DsweepOptions opt;
  opt.threads = 4;
  const auto res = run_echo(opt);
  ASSERT_EQ(res.records.size(), kCells);
  EXPECT_FALSE(res.stats.interrupted);
  for (std::uint64_t i = 0; i < kCells; ++i) {
    ASSERT_TRUE(res.done[i]);
    EXPECT_EQ(res.records[i].at("index").as_double(), static_cast<double>(i));
    EXPECT_EQ(res.records[i].at("seed").as_string(),
              std::to_string(job_seed(kSeed, i)));
  }
  // Any thread count yields the same records.
  expect_matches_reference(res);
}

TEST(Dsweep, AbortIsCheckpointedAndResumeCompletesIdentically) {
  const std::string manifest = temp_manifest("resume");
  std::remove(manifest.c_str());

  auto opt = two_threads();
  opt.manifest_path = manifest;
  opt.faults = FaultSpec::parse("abort-after=3");
  const auto partial = run_echo(opt);
  EXPECT_TRUE(partial.stats.interrupted);
  const std::uint64_t done = done_cells(partial).size();
  EXPECT_GE(done, 3u);
  EXPECT_LT(done, kCells);

  auto resume = two_threads();
  resume.manifest_path = manifest;
  resume.resume = true;
  const auto full = run_echo(resume);
  EXPECT_FALSE(full.stats.interrupted);
  EXPECT_EQ(full.stats.resumed_cells, done);
  expect_matches_reference(full);
  std::remove(manifest.c_str());
}

TEST(Dsweep, CancelFlagStopsTheSweepAndResumeCompletesIdentically) {
  // bench_fer's SIGINT/SIGTERM handler raises DsweepOptions::cancel; here
  // the progress callback raises it after K commits, mid-sweep.
  constexpr std::uint64_t K = 5;
  const std::string manifest = temp_manifest("cancel");
  std::remove(manifest.c_str());

  volatile std::sig_atomic_t cancel = 0;
  auto opt = two_threads();
  opt.manifest_path = manifest;
  opt.cancel = &cancel;
  opt.progress = [&cancel](const SweepProgress& p) {
    if (p.completed == K) cancel = 1;
  };
  const auto partial = run_echo(opt);
  EXPECT_TRUE(partial.stats.interrupted);
  const auto done = done_cells(partial);
  EXPECT_GE(done.size(), K);
  EXPECT_LT(done.size(), kCells);

  // The manifest holds exactly the committed cells, each once, with the
  // records the sweep returned.
  const auto load =
      load_manifest(manifest, sweep_fingerprint("test-echo", echo_job(), kCells, kSeed));
  ASSERT_TRUE(load.fingerprint_ok);
  std::set<std::uint64_t> journaled;
  for (const auto& e : load.entries) {
    EXPECT_TRUE(journaled.insert(e.cell).second) << "cell " << e.cell << " twice";
    EXPECT_EQ(e.record.dump(0), partial.records[e.cell].dump(0)) << "cell " << e.cell;
  }
  EXPECT_EQ(journaled, done);

  auto resume = two_threads();
  resume.manifest_path = manifest;
  resume.resume = true;
  const auto full = run_echo(resume);
  EXPECT_FALSE(full.stats.interrupted);
  EXPECT_EQ(full.stats.resumed_cells, done.size());
  expect_matches_reference(full);
  std::remove(manifest.c_str());
}

TEST(Dsweep, ResumeRejectsManifestFromDifferentRun) {
  const std::string manifest = temp_manifest("mismatch");
  std::remove(manifest.c_str());

  DsweepOptions opt;
  opt.threads = 1;
  opt.manifest_path = manifest;
  opt.faults = FaultSpec::parse("abort-after=2");
  (void)run_echo(opt);

  DsweepOptions resume;
  resume.threads = 1;
  resume.manifest_path = manifest;
  resume.resume = true;
  // Different base seed => different fingerprint: silently mixing the old
  // records would corrupt the sweep, so this must throw.
  EXPECT_THROW(run_echo(resume, kSeed + 1), std::runtime_error);
  std::remove(manifest.c_str());
}

TEST(Dsweep, ZeroCellsReturnsEmptyWithoutSpawningAnything) {
  const auto res = dsweep_run("test-echo", echo_job(), 0, kSeed, two_threads(),
                              [](std::uint64_t, std::uint64_t) -> Json {
                                ADD_FAILURE() << "no cell should run";
                                return Json();
                              });
  EXPECT_TRUE(res.records.empty());
  EXPECT_TRUE(res.done.empty());
  EXPECT_FALSE(res.stats.interrupted);
}

TEST(Dsweep, DeterministicKernelFailurePropagatesInProcess) {
  EXPECT_THROW(dsweep_run("test-fail-at", Json(), 4, kSeed, two_threads(),
                          [](std::uint64_t index, std::uint64_t) {
                            if (index == 1) {
                              throw std::invalid_argument("poison cell");
                            }
                            Json r;
                            r["index"] = index;
                            return r;
                          }),
               std::invalid_argument);
}

TEST(FaultSpec, AcceptsOnlyAbortAfter) {
  EXPECT_EQ(FaultSpec::parse("").abort_after, 0u);
  EXPECT_EQ(FaultSpec::parse("abort-after=10").abort_after, 10u);
  for (const char* bad :
       {"abort-after", "abort-after=", "abort-after=0", "abort-after=x",
        "abort-after=-1", "abort-after=3@0", "kill-after=3", "spawn-fail",
        "abort-after=3,kill-after=1"}) {
    EXPECT_THROW(FaultSpec::parse(bad), std::invalid_argument) << "spec '" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Sharded sweeps: any I/N partition must merge back byte-identically.
// ---------------------------------------------------------------------------

DsweepOptions shard_options(const std::string& manifest, unsigned index,
                            unsigned count) {
  auto opt = two_threads();
  opt.manifest_path = manifest;
  opt.shard_index = index;
  opt.shard_count = count;
  return opt;
}

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

      const auto res = run_echo(shard_options(m, i, n));
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
  auto opt0 = shard_options(m0, 0, 2);
  opt0.faults = FaultSpec::parse("abort-after=2");
  const auto partial = run_echo(opt0);
  EXPECT_TRUE(partial.stats.interrupted);

  // ...and the crash tears the journal's final line.
  {
    std::FILE* f = std::fopen(m0.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"cell\": 999, \"rec", f);
    std::fclose(f);
  }

  auto resume0 = shard_options(m0, 0, 2);
  resume0.resume = true;
  const auto full0 = run_echo(resume0);
  EXPECT_FALSE(full0.stats.interrupted);
  EXPECT_GE(full0.stats.resumed_cells, 2u);

  const auto full1 = run_echo(shard_options(m1, 1, 2));
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

  (void)run_echo(shard_options(m0, 0, 2));
  // Shard 1 computed under a different base seed: merging it would mix
  // two different runs, exactly like resuming from a foreign manifest.
  (void)run_echo(shard_options(m1, 1, 2), kSeed + 1);

  EXPECT_THROW(
      dsweep_merge_shards("test-echo", echo_job(), kCells, kSeed, {m0, m1}),
      std::runtime_error);
  std::remove(m0.c_str());
  std::remove(m1.c_str());
}

TEST(DsweepShard, MergeRequiresFullCoverage) {
  const std::string m0 = temp_manifest("coverage0");
  std::remove(m0.c_str());

  (void)run_echo(shard_options(m0, 0, 2));

  // Half the grid is missing: an unfinished set of shards must be an
  // error, not a silently truncated result.
  EXPECT_THROW(dsweep_merge_shards("test-echo", echo_job(), kCells, kSeed, {m0}),
               std::runtime_error);
  EXPECT_THROW(dsweep_merge_shards("test-echo", echo_job(), kCells, kSeed,
                                   {m0, "/nonexistent/dir/x.manifest"}),
               std::runtime_error);
  std::remove(m0.c_str());
}

// ---------------------------------------------------------------------------
// FER sweeps: the checkpointed path must reproduce run_fer_sweep.
// ---------------------------------------------------------------------------

TEST(DsweepFer, DistributedSweepMatchesInProcessSweep) {
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  grid.interleavers = {"none", "block", "two-stage"};
  grid.channels = {"bsc", "gilbert-elliott"};
  grid.rs_ks = {223, 191};

  FerSweepOptions options;
  options.sweep.threads = 2;
  options.sweep.base_seed = 11;
  options.base.frames = 2;
  options.base.side = 64;
  options.base.symbols_per_burst = 8;

  const auto reference = run_fer_sweep(grid, options);
  const auto res = run_fer_sweep_dist(grid, options, DsweepOptions{});

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
    if (a.result.dram_ran) {
      EXPECT_EQ(a.result.dram.total_bursts(), b.dram_bursts);
      EXPECT_EQ(a.result.dram_throughput_gbps, b.result.dram_throughput_gbps);
    }
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

  // Manifests already on disk stay resumable within one draw revision:
  // this fixed job's fingerprint is the one every release under
  // channel::kDrawRevision 3 writes into its headers. A new revision
  // changes `channel_draws`, and with it this pin.
  grid.interleavers = {"none", "two-stage"};
  grid.channels = {"bsc", "leo"};
  grid.rs_ks = {223, 191};
  options.base.frames = 3;
  options.base.side = 64;
  options.base.symbols_per_burst = 8;
  EXPECT_EQ(sweep_fingerprint("fer", fer_job_config(grid, options), grid.size(), 1),
            "ccdfa2de5b3f96cd");
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

  const Json record = fer_cell_to_json(s, r);
  // Round trip through dump/parse exactly as the manifest does.
  const FerCell back = fer_cell_from_json(Json::parse(record.dump(0)));
  EXPECT_EQ(back.scenario.label(), s.label());
  EXPECT_EQ(back.result.code_words, r.code_words);
  EXPECT_EQ(back.result.word_errors, r.word_errors);
  EXPECT_EQ(back.result.frame_errors, r.frame_errors);
  EXPECT_EQ(back.result.channel_symbol_errors, r.channel_symbol_errors);
  EXPECT_EQ(back.result.workspace_peak_bytes, r.workspace_peak_bytes);
  EXPECT_EQ(back.result.host_ns, r.host_ns);
  EXPECT_FALSE(back.result.dram_ran);
}

TEST(DsweepFer, ManifestWithoutChannelDrawStampIsRefused) {
  // The job config carries the channel models' draw revision, so records
  // drawn by other channel code never enter a run: a manifest written
  // for the unstamped job (every manifest from before the stamp) is a
  // different run to --resume and --merge-shards.
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
}

}  // namespace
}  // namespace tbi::sim
