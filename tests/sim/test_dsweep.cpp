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

#include "perf/bench_compare.hpp"
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

SweepOptions echo_sweep(unsigned threads = 2, std::uint64_t base_seed = kSeed) {
  SweepOptions sweep;
  sweep.threads = threads;
  sweep.base_seed = base_seed;
  return sweep;
}

DsweepResult run_echo(const DsweepOptions& opt,
                      const SweepOptions& sweep = echo_sweep()) {
  return dsweep_run("test-echo", echo_job(), kCells, sweep, opt, echo_cell);
}

/// Clean, unsharded reference for the echo sweep.
std::vector<std::string> echo_reference() {
  const auto res = run_echo(DsweepOptions{});
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
  const auto res = run_echo(DsweepOptions{}, echo_sweep(4));
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

  DsweepOptions opt;
  opt.manifest_path = manifest;
  opt.abort_after = 3;
  const auto partial = run_echo(opt);
  EXPECT_TRUE(partial.stats.interrupted);
  const std::uint64_t done = done_cells(partial).size();
  EXPECT_GE(done, 3u);
  EXPECT_LT(done, kCells);

  DsweepOptions resume;
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
  DsweepOptions opt;
  opt.manifest_path = manifest;
  opt.cancel = &cancel;
  auto sweep = echo_sweep();
  sweep.progress = [&cancel](const SweepProgress& p) {
    if (p.completed == K) cancel = 1;
  };
  const auto partial = run_echo(opt, sweep);
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

  DsweepOptions resume;
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
  opt.manifest_path = manifest;
  opt.abort_after = 2;
  (void)run_echo(opt, echo_sweep(1));

  DsweepOptions resume;
  resume.manifest_path = manifest;
  resume.resume = true;
  // Different base seed => different fingerprint: silently mixing the old
  // records would corrupt the sweep, so this must throw.
  EXPECT_THROW(run_echo(resume, echo_sweep(1, kSeed + 1)), std::runtime_error);
  std::remove(manifest.c_str());
}

TEST(Dsweep, ZeroCellsReturnsEmptyWithoutSpawningAnything) {
  const auto res = dsweep_run("test-echo", echo_job(), 0, echo_sweep(), DsweepOptions{},
                              [](std::uint64_t, std::uint64_t) -> Json {
                                ADD_FAILURE() << "no cell should run";
                                return Json();
                              });
  EXPECT_TRUE(res.records.empty());
  EXPECT_TRUE(res.done.empty());
  EXPECT_FALSE(res.stats.interrupted);
}

TEST(Dsweep, DeterministicKernelFailurePropagatesInProcess) {
  EXPECT_THROW(dsweep_run("test-fail-at", Json(), 4, echo_sweep(), DsweepOptions{},
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

TEST(FaultInject, AcceptsOnlyAbortAfter) {
  EXPECT_EQ(parse_fault_inject(nullptr), 0u);
  EXPECT_EQ(parse_fault_inject(""), 0u);
  EXPECT_EQ(parse_fault_inject("abort-after=10"), 10u);
  EXPECT_EQ(parse_fault_inject("abort-after=18446744073709551615"),
            18446744073709551615u);
  // A count past 2^64 - 1 must not saturate into a fault that never fires.
  for (const char* bad :
       {"abort-after", "abort-after=", "abort-after=0", "abort-after=x",
        "abort-after=-1", "abort-after=3@0", "kill-after=3", "spawn-fail",
        "abort-after=3,kill-after=1", "abort-after=18446744073709551616",
        "abort-after=99999999999999999999999"}) {
    EXPECT_THROW(parse_fault_inject(bad), std::invalid_argument) << "spec '" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Sharded sweeps: any I/N partition must merge back byte-identically.
// ---------------------------------------------------------------------------

DsweepOptions shard_options(const std::string& manifest, unsigned index,
                            unsigned count) {
  DsweepOptions opt;
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
  opt0.abort_after = 2;
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
  (void)run_echo(shard_options(m1, 1, 2), echo_sweep(2, kSeed + 1));

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
  // Two DRAM inputs: triangular (cells 8-11) and two-stage (12-15).
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  grid.interleavers = {"none", "block", "triangular", "two-stage"};
  grid.channels = {"bsc", "gilbert-elliott"};
  grid.rs_ks = {223, 191};

  FerSweepOptions options;
  options.sweep.threads = 2;
  options.sweep.base_seed = 11;
  options.base.frames = 2;
  options.base.side = 64;
  options.base.symbols_per_burst = 8;

  const auto reference = run_fer_sweep(grid, options);

  // Some records come back through the journal: the run is aborted after
  // 9 commits and resumed. The two threads take cells in index order and
  // the cell in flight commits, so the journal holds cells 0-8 and at
  // most one more: cell 8, the triangular input's first cell, is journaled,
  // and the resumed run must still run that input for cells 10 and 11.
  const std::string manifest = temp_manifest("fer_match");
  std::remove(manifest.c_str());
  DsweepOptions dist;
  dist.manifest_path = manifest;
  dist.abort_after = 9;
  EXPECT_TRUE(run_fer_sweep_dist(grid, options, dist).stats.interrupted);
  dist.abort_after = 0;
  dist.resume = true;
  const auto res = run_fer_sweep_dist(grid, options, dist);
  EXPECT_GE(res.stats.resumed_cells, 9u);
  EXPECT_LE(res.stats.resumed_cells, 10u);
  std::remove(manifest.c_str());

  ASSERT_EQ(res.records.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(res.done[i]);
    const Json row = fer_record(reference[i].scenario, reference[i].result);
    // Every key but host timing, which the journal carries as well.
    EXPECT_EQ(perf::without_host_timing(res.records[i]).dump(0),
              perf::without_host_timing(row).dump(0))
        << reference[i].scenario.label();
    EXPECT_TRUE(res.records[i].contains("host_ns"));
  }
}

TEST(DsweepFer, GridIsCheckedBeforeTheJournalOpens) {
  // run_fer_sweep rejects RS(255, 224) before any cell runs; the
  // checkpointed sweep must too, not commit cell 0 first and leave a
  // journal behind. An unknown device is refused the same way.
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  grid.channels = {"bsc"};
  grid.rs_ks = {223, 224};
  FerSweepOptions options;
  options.sweep.threads = 1;
  options.base.frames = 1;
  DsweepOptions dist;
  dist.manifest_path = temp_manifest("badgrid");
  std::remove(dist.manifest_path.c_str());

  EXPECT_THROW(run_fer_sweep(grid, options), std::invalid_argument);
  EXPECT_THROW(run_fer_sweep_dist(grid, options, dist), std::invalid_argument);
  EXPECT_FALSE(load_manifest(dist.manifest_path, "").found) << "journal left behind";

  grid.rs_ks = {223};
  grid.devices = {"NO-SUCH-DEVICE"};
  EXPECT_THROW(run_fer_sweep_dist(grid, options, dist), std::invalid_argument);
  EXPECT_FALSE(load_manifest(dist.manifest_path, "").found) << "journal left behind";

  // A DRAM-resident cell with run_dram set and no device ("" falls back
  // to the template's device, which is unset) is refused the same way,
  // even when cells before it would run.
  grid.devices = {"", "DDR4-3200"};
  grid.interleavers = {"block", "triangular"};
  options.base.side = 64;
  options.base.symbols_per_burst = 8;
  ASSERT_TRUE(options.base.run_dram);
  EXPECT_THROW(run_fer_sweep(grid, options), std::invalid_argument);
  EXPECT_THROW(run_fer_sweep_dist(grid, options, dist), std::invalid_argument);
  EXPECT_FALSE(load_manifest(dist.manifest_path, "").found) << "journal left behind";

  // An unknown interleaver, an unknown channel ("trace" among them), and
  // an unknown mapping on a cell that runs the DRAM stage, each behind a
  // good cell, are refused with the text the cell itself would throw.
  const auto expect_refused = [&](const std::string& text) {
    try {
      run_fer_sweep_dist(grid, options, dist);
      ADD_FAILURE() << "grid accepted; expected " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), text);
    }
    EXPECT_FALSE(load_manifest(dist.manifest_path, "").found) << "journal left behind";
  };
  grid.devices = {"DDR4-3200"};
  grid.interleavers = {"triangular", "bogus"};
  expect_refused("pipeline: unknown interleaver 'bogus'");
  grid.interleavers = {"triangular"};
  grid.channels = {"bsc", "trace"};
  expect_refused("pipeline: unknown channel 'trace'");
  grid.channels = {"bsc"};
  grid.mapping_specs = {"optimized", "bogus"};
  expect_refused("make_mapping: unknown spec 'bogus'");
  std::remove(dist.manifest_path.c_str());
}

/// fer_job_config as releases with the links axis wrote it: today's job
/// plus that axis's three keys at their default values.
Json job_with_links(const SweepGrid& grid, const FerSweepOptions& options) {
  Json job = fer_job_config(grid, options);
  Json g = job.at("grid");
  g["links"] = Json(Json::Array{Json(std::uint64_t{0})});
  Json base = job.at("base");
  base["links"] = std::uint64_t{1};
  base["link_phase_symbols"] = std::uint64_t{0};
  job["grid"] = g;
  job["base"] = base;
  return job;
}

TEST(DsweepFer, JobConfigFingerprintIsStable) {
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  FerSweepOptions options;
  const Json a = fer_job_config(grid, options);
  const Json b = fer_job_config(grid, options);
  EXPECT_EQ(sweep_fingerprint(kFerSweep, a, grid.size(), 1),
            sweep_fingerprint(kFerSweep, b, grid.size(), 1));

  // Manifests already on disk stay resumable within one draw revision,
  // one record shape and one job shape: this fixed job's fingerprint is
  // the one every release under channel::kDrawRevision 3, the kFerSweep
  // record and the job without the links axis writes into its headers. A
  // new revision changes `channel_draws`, a new record shape the sweep's
  // name, a new setting the job, and each changes this pin.
  grid.interleavers = {"none", "two-stage"};
  grid.channels = {"bsc", "leo"};
  grid.rs_ks = {223, 191};
  options.base.frames = 3;
  options.base.side = 64;
  options.base.symbols_per_burst = 8;
  const Json job = fer_job_config(grid, options);
  EXPECT_EQ(sweep_fingerprint(kFerSweep, job, grid.size(), 1), "cf9e8cf64e4e4e26");
  // The earlier pins: the job as releases with the links axis wrote it,
  // under this name and under the name the nested {scenario, result}
  // records were journaled under.
  const Json with_links = job_with_links(grid, options);
  EXPECT_EQ(sweep_fingerprint(kFerSweep, with_links, grid.size(), 1), "c15caac1ba20afd3");
  EXPECT_EQ(sweep_fingerprint("fer", with_links, grid.size(), 1), "ccdfa2de5b3f96cd");
}

/// Write a complete FER journal of a small grid whose header is
/// fingerprinted by (\p name, \p job(grid, options)) and whose entries are
/// \p record_of(scenario, result), then check that neither --resume nor
/// --merge-shards accepts it.
template <typename JobOf, typename RecordOf>
void expect_journal_refused(const char* tag, const std::string& name, JobOf job_of,
                            RecordOf record_of) {
  SweepGrid grid;
  grid.devices = {"LPDDR5-8533"};
  grid.interleavers = {"none"};
  grid.channels = {"bsc", "gilbert-elliott"};
  FerSweepOptions options;
  options.sweep.threads = 1;
  options.sweep.base_seed = 3;
  options.base.frames = 2;
  options.base.side = 64;
  options.base.run_dram = false;

  const std::string path = temp_manifest(tag);
  std::remove(path.c_str());
  ManifestWriter writer;
  ASSERT_TRUE(writer.open(path,
                          sweep_fingerprint(name, job_of(grid, options), grid.size(),
                                            options.sweep.base_seed),
                          /*fresh=*/true));
  const auto reference = run_fer_sweep(grid, options);
  for (std::uint64_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(writer.append(i, record_of(reference[i].scenario, reference[i].result)));
  }
  writer.close();

  DsweepOptions dist;
  dist.manifest_path = path;
  dist.resume = true;
  EXPECT_THROW(run_fer_sweep_dist(grid, options, dist), std::runtime_error);
  EXPECT_THROW(run_fer_merge_shards(grid, options, {path}), std::runtime_error);
  std::remove(path.c_str());
}

TEST(DsweepFer, ManifestWithoutChannelDrawStampIsRefused) {
  // The job config carries the channel models' draw revision, so records
  // drawn by other channel code never enter a run: a manifest written
  // for the unstamped job (every manifest from before the stamp) is a
  // different run to --resume and --merge-shards, even with today's
  // records.
  const auto unstamped = [](const SweepGrid& grid, const FerSweepOptions& options) {
    const Json job = fer_job_config(grid, options);
    EXPECT_EQ(job.at("channel_draws").as_double(),
              static_cast<double>(channel::kDrawRevision));
    Json old;
    old["grid"] = job.at("grid");
    old["base"] = job.at("base");
    return old;
  };
  expect_journal_refused("unstamped", kFerSweep, unstamped, fer_record);
}

TEST(DsweepFer, JournalOfTheLinksJobIsRefused) {
  // A journal written while the job carried the links axis belongs to
  // another run, even with today's records: --resume and --merge-shards
  // refuse it rather than mix it in.
  expect_journal_refused("links", kFerSweep, job_with_links, fer_record);
}

TEST(DsweepFer, JournalOfNestedRecordsIsRefused) {
  // Before the journal stored the output row, each entry was a nested
  // {scenario, result} record under the name "fer". Such a journal is a
  // different run, however complete, so its records never reach a
  // document of rows.
  const auto nested = [](const Scenario& scenario, const PipelineResult& result) {
    Json sc;
    sc["device"] = scenario.device;
    sc["interleaver"] = scenario.interleaver;
    sc["channel"] = scenario.channel;
    sc["rs_k"] = static_cast<std::uint64_t>(scenario.rs_k);
    Json r;
    r["frames"] = result.frames;
    r["code_words"] = result.code_words;
    r["word_errors"] = result.word_errors;
    r["dram_ran"] = result.dram_ran;
    Json j;
    j["scenario"] = sc;
    j["result"] = r;
    return j;
  };
  expect_journal_refused("nested", "fer", fer_job_config, nested);
}

}  // namespace
}  // namespace tbi::sim
