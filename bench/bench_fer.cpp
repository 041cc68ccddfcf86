/// \file bench_fer.cpp
/// E9 — end-to-end frame-error-rate sweep over the full scenario grid:
/// interleaver type x channel model x code rate, with the triangular
/// interleaver's DRAM feasibility reported alongside. This is the paper's
/// motivating story (§I) quantified: a bursty optical LEO downlink needs
/// the triangular interleaver to make the RS code useful, and the
/// DRAM-resident implementation sustains the link rate only with the
/// optimized mapping.
///
/// Runs on the checkpointed sweep (sim/dsweep.hpp) with deterministic
/// per-cell seeding: the records are identical for any --threads value.
/// With `--json` every completed cell is checkpointed to
/// `<file>.manifest`, `--resume` skips the cells already recorded there,
/// and SIGINT/SIGTERM flush a valid partial document (plus the manifest)
/// before exiting 130. `--stable-json` drops the host-timing fields so two
/// runs of the same sweep can be compared with a plain diff.
///
/// The interleaver axis includes the paper's headline "two-stage" scheme
/// (§II): those cells run the streaming frame path at the burst-granular
/// stage-2 side (--side, in bursts) with --spb symbols per DRAM burst, so
/// their frames are spb x larger than the RS-255 triangle of the classic
/// rows.
///
/// Sharding: `--shard I/N` computes one contiguous range of the grid into
/// its own manifest (one shard per host, say) and `--merge-shards
/// M1,M2,..` reassembles the ranges into output byte-identical (under
/// --stable-json) to an unsharded run.
///
/// Usage: bench_fer [--device NAME] [--frames N] [--seed S] [--threads T]
///                  [--resume] [--fade-prob P] [--burst-symbols B]
///                  [--side S] [--spb B] [--links N]
///                  [--shard I/N] [--merge-shards M1,M2,..]
///                  [--markdown] [--progress] [--json FILE] [--stable-json]
#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "dram/standards.hpp"
#include "perf/counters.hpp"
#include "sim/dsweep.hpp"
#include "sim/manifest.hpp"
#include "sim/pipeline.hpp"

namespace {

volatile std::sig_atomic_t g_cancel = 0;

void handle_signal(int) { g_cancel = 1; }

/// Read integer option \p name into \p out. A value below \p min, or
/// one that does not fit T, prints an error: line and returns false; an
/// unchecked cast would turn --frames -1 into 4,294,967,295 frames.
template <typename T>
bool read_count(const tbi::CliParser& cli, const char* name, std::int64_t fallback,
                std::int64_t min, T* out) {
  const std::int64_t v = cli.get_int(name, fallback);
  if (v < min || !std::in_range<T>(v)) {
    std::fprintf(stderr, "error: --%s must be an integer in [%lld, %llu]\n", name,
                 static_cast<long long>(min),
                 static_cast<unsigned long long>(std::numeric_limits<T>::max()));
    return false;
  }
  *out = static_cast<T>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  tbi::CliParser cli("bench_fer", "FER sweep: interleaver x channel x code rate");
  cli.add_option("device", "name", "DRAM device (default LPDDR5-8533)");
  cli.add_option("frames", "n", "frames per scenario (default 40)");
  cli.add_option("seed", "s", "sweep base seed (default 1)");
  cli.add_option("threads", "T", "sweep threads (default: all cores)");
  cli.add_option("resume", "", "skip cells recorded in the --json manifest");
  cli.add_option("fade-prob", "p", "stationary fade duty cycle (default 0.004)");
  cli.add_option("burst-symbols", "b", "mean fade length in symbols (default 300)");
  cli.add_option("side", "s", "interleaver side (0 = RS-255 triangle; bursts for two-stage)");
  cli.add_option("spb", "b", "two-stage symbols per DRAM burst (default 64)");
  cli.add_option("links", "n", "downlinks interleaved on the wire (default 1)");
  cli.add_option("shard", "i/n", "compute only shard i of n (needs --json)");
  cli.add_option("merge-shards", "m1,m2,..",
                 "merge shard manifests into the full result (no compute)");
  cli.add_option("markdown", "", "print GitHub markdown");
  cli.add_option("progress", "", "print sweep progress to stderr");
  cli.add_option("json", "file", "write config + wall time + records as JSON");
  cli.add_option("stable-json", "", "omit host-timing fields (diffable output)");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.has("help")) {
    std::fputs(cli.usage().c_str(), stdout);
    return 0;
  }

  const std::string device = cli.get("device", "LPDDR5-8533");
  if (tbi::dram::find_config(device) == nullptr) {
    std::fprintf(stderr, "error: unknown device '%s'\n", device.c_str());
    return 1;
  }
  if (cli.has("resume") && !cli.has("json")) {
    std::fprintf(stderr, "error: --resume needs --json (the manifest lives "
                         "next to the JSON sink)\n");
    return 1;
  }

  tbi::sim::FerSweepOptions options;
  unsigned links = 1;
  if (!read_count(cli, "frames", 40, 1, &options.base.frames) ||
      !read_count(cli, "links", 1, 1, &links) ||
      !read_count(cli, "side", 0, 0, &options.base.side) ||
      !read_count(cli, "spb", 64, 1, &options.base.symbols_per_burst) ||
      !read_count(cli, "threads", 0, 0, &options.sweep.threads) ||
      !read_count(cli, "seed", 1, 0, &options.sweep.base_seed)) {
    return 1;
  }

  tbi::sim::SweepGrid grid;
  grid.devices = {device};
  grid.interleavers = {"none", "block", "triangular", "two-stage"};
  grid.channels = {"bsc", "gilbert-elliott", "leo"};
  grid.rs_ks = {239, 223, 191};
  // Route --links through the grid axis (not the base template) so the
  // scenario labels and checkpoint manifests identify multi-link cells;
  // the default 1 keeps the axis in its unset state and the cell order,
  // seeds and labels of single-link sweeps unchanged.
  if (links > 1) grid.links = {links};

  options.base.fade_fraction = cli.get_double("fade-prob", 0.004);
  options.base.mean_burst_symbols = cli.get_double("burst-symbols", 300);
  options.base.error_probability = 2e-3;
  options.base.error_rate_bad = 0.95;

  tbi::sim::DsweepOptions dist;
  dist.resume = cli.has("resume");
  if (cli.has("json")) {
    dist.manifest_path = cli.get("json", "") + ".manifest";
  }
  if (cli.has("shard")) {
    try {
      tbi::sim::parse_shard_spec(cli.get("shard", ""), &dist.shard_index,
                                 &dist.shard_count);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    if (!cli.has("json")) {
      std::fprintf(stderr, "error: --shard needs --json (the shard's output is "
                           "its manifest)\n");
      return 1;
    }
  }
  dist.cancel = &g_cancel;
  if (cli.has("progress")) {
    dist.progress = [](const tbi::sim::SweepProgress& p) {
      std::fprintf(stderr, "\r%llu/%llu scenarios",
                   static_cast<unsigned long long>(p.completed),
                   static_cast<unsigned long long>(p.total));
      if (p.completed == p.total) std::fputc('\n', stderr);
    };
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  tbi::sim::FerDistResult sweep;
  const auto wall_start = std::chrono::steady_clock::now();
  try {
    if (cli.has("merge-shards")) {
      // Reassemble shard manifests; the records then flow through the
      // exact same formatting path as a computed sweep, so the merged
      // document is byte-identical (under --stable-json) to an unsharded
      // run.
      std::vector<std::string> paths;
      const std::string spec = cli.get("merge-shards", "");
      for (std::size_t pos = 0; pos <= spec.size();) {
        const auto comma = spec.find(',', pos);
        const auto end = comma == std::string::npos ? spec.size() : comma;
        if (end > pos) paths.push_back(spec.substr(pos, end - pos));
        pos = end + 1;
      }
      sweep = tbi::sim::run_fer_merge_shards(grid, options, paths);
    } else {
      dist.faults = tbi::sim::FaultSpec::from_env();
      sweep = tbi::sim::run_fer_sweep_dist(grid, options, dist);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  const bool interrupted = sweep.stats.interrupted;
  std::uint64_t completed = 0;
  for (const bool d : sweep.done) completed += d ? 1 : 0;

  if (cli.has("json")) {
    // --stable-json drops everything that varies run to run (host timing,
    // machine load, process bookkeeping), so clean, aborted-and-resumed
    // and sharded runs of one sweep are literally diffable. The default
    // document keeps it all for bench_compare.
    const bool stable = cli.has("stable-json");
    tbi::Json doc;
    doc["bench"] = "bench_fer";
    tbi::Json config;
    config["device"] = device;
    config["frames"] = static_cast<std::uint64_t>(options.base.frames);
    config["seed"] = options.sweep.base_seed;
    if (!stable) {
      config["threads"] = static_cast<std::uint64_t>(options.sweep.threads);
    }
    config["fade_prob"] = options.base.fade_fraction;
    config["burst_symbols"] = options.base.mean_burst_symbols;
    config["side"] = options.base.side;
    config["spb"] = options.base.symbols_per_burst;
    config["links"] = static_cast<std::uint64_t>(links);
    doc["config"] = config;
    if (!stable) {
      doc["wall_seconds"] = wall_seconds;
      doc["scenarios_per_second"] =
          wall_seconds > 0 ? static_cast<double>(completed) / wall_seconds : 0.0;
    }
    if (interrupted) {
      doc["interrupted"] = true;  // partial document: completed cells only
    }
    tbi::Json::Array rows;
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
      if (!sweep.done[i]) continue;
      const auto& r = sweep.cells[i];
      tbi::Json row;
      row["interleaver"] = r.scenario.interleaver;
      row["channel"] = r.scenario.channel;
      row["rs_k"] = static_cast<std::uint64_t>(r.scenario.rs_k);
      if (r.scenario.links != 0) {
        row["links"] = static_cast<std::uint64_t>(r.scenario.links);
      }
      row["frame_symbols"] = r.result.frame_symbols;
      row["code_words"] = r.result.code_words;
      row["word_errors"] = r.result.word_errors;
      row["frame_errors"] = r.result.frame_errors;
      row["channel_symbol_errors"] = r.result.channel_symbol_errors;
      row["corrected_symbols"] = r.result.corrected_symbols;
      row["wer"] = r.result.word_error_rate();
      row["fer"] = r.result.frame_error_rate();
      // Perf counters (src/perf/counters.hpp): exact fields pin the
      // zero-allocation hot-path invariant, *_ns / *_per_second fields are
      // host timing and only band-checked by bench_compare.
      row["workspace_peak_bytes"] = r.result.workspace_peak_bytes;
      row["steady_allocations"] = r.result.steady_allocations;
      row["steady_frames"] = r.result.steady_frames;
      row["allocations_per_frame"] = r.result.allocations_per_frame();
      if (!stable) {
        row["host_ns"] = r.result.host_ns;
      }
      row["channel_symbols"] = r.result.channel_symbols;
      if (!stable) {
        row["channel_symbols_per_second"] = r.result.channel_symbols_per_second();
      }
      if (r.result.dram_ran) {
        row["dram_throughput_gbps"] = r.result.dram_throughput_gbps;
        row["dram_bursts"] = r.dram_bursts;
        if (!stable) {
          row["dram_sched_ns_per_pick"] = r.dram_sched_ns_per_pick;
        }
      }
      rows.push_back(row);
    }
    doc["records"] = rows;
    if (!stable) {
      doc["dsweep"] = sweep.stats.to_json();
      tbi::Json perf;
      perf["process_allocations"] = tbi::perf::process_alloc_count();
      doc["perf"] = perf;
    }
    if (!tbi::Json::write_file(cli.get("json", ""), doc)) {
      return 1;
    }
    // A completed shard's manifest IS its output (--merge-shards consumes
    // it), so only unsharded compute runs discard the checkpoint.
    if (!interrupted && !dist.manifest_path.empty() && dist.shard_count == 1 &&
        !cli.has("merge-shards")) {
      std::remove(dist.manifest_path.c_str());  // checkpoint served its purpose
    }
  }

  tbi::TextTable t("End-to-end FER on " + device + " (" +
                   std::to_string(options.base.frames) + " frames per scenario)");
  t.set_header({"Interleaver", "Channel", "Code", "Word Errors", "WER", "FER",
                "DRAM Gbit/s"});
  for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
    if (!sweep.done[i]) continue;
    const auto& r = sweep.cells[i];
    char code[24], wer[24], fer[24], gbps[24];
    std::snprintf(code, sizeof code, "RS(255,%u)", r.scenario.rs_k);
    std::snprintf(wer, sizeof wer, "%.5f", r.result.word_error_rate());
    std::snprintf(fer, sizeof fer, "%.3f", r.result.frame_error_rate());
    if (r.result.dram_ran) {
      std::snprintf(gbps, sizeof gbps, "%.1f", r.result.dram_throughput_gbps);
    } else {
      std::snprintf(gbps, sizeof gbps, "-");
    }
    t.add_row({r.scenario.interleaver, r.scenario.channel, code,
               std::to_string(r.result.word_errors), wer, fer, gbps});
  }
  std::fputs(cli.has("markdown") ? t.render_markdown().c_str() : t.render().c_str(),
             stdout);
  if (interrupted) {
    std::fprintf(stderr,
                 "interrupted: %llu/%llu scenarios completed (checkpointed%s)\n",
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(sweep.cells.size()),
                 cli.has("json") ? "; rerun with --resume to finish" : "");
    return 130;
  }
  std::puts(
      "\nExpected shape: the memoryless bsc rows are interleaver-neutral;\n"
      "on the bursty channels the triangular interleaver turns frame losses\n"
      "into corrected words at the same channel error count. The two-stage\n"
      "rows stream spb x larger burst-granular frames (paper §II): at the\n"
      "paper's code rates (RS(255,223) and stronger) they hold the classic\n"
      "rows' protection despite seeing spb x more fades per frame, while\n"
      "the weakest code shows the residual cost of burst granularity.");
  return 0;
}
