/// \file pipeline.hpp
/// End-to-end frame-error-rate pipeline (the paper's motivating system,
/// §I): Reed-Solomon-coded frames stream through a chosen interleaver and
/// a configurable symbol-error channel; the interleaver's write and read
/// phases additionally execute on the simulated DRAM controller, so one
/// run yields both the coding gain of the interleaver *and* the memory
/// bandwidth it needs.
///
/// Two frame layouts share the entry points:
///
/// * **Row-aligned** (side == rs_n, the legacy geometry): one shortened
///   RS(n, k) code word per triangle row (row i carries word symbols
///   i..n-1, the leading i zeros are implicit); the trailing n - k rows
///   are padding.
/// * **Streaming** (side != rs_n, or the "two-stage" interleaver): frame
///   size is decoupled from the code word — full RS(n, k) words are
///   packed back to back into the interleaver's symbol capacity, and a
///   sub-word tail is padding.
///
/// Neither layout materializes a frame. Every Channel corrupts symbols
/// with data-independent, non-zero XOR flips, and RS is linear, so a
/// bounded-distance decoder's verdict on a word depends only on the
/// word's error weight: it recovers the word, with one correction per
/// error, iff the weight is <= t = (n - k) / 2. The frame loop therefore
/// takes the source's (wire position, flip) events, which arrive in
/// increasing wire position, and a WireCursor walks the frame's
/// interleaver columns forward to each event's code word, by additions
/// instead of an inverse permutation per event. It adds 1 to that word's
/// byte in a fixed weight array and judges every word by its weight after
/// the frame. Memory is the weight array — capacity / n bytes, 3.1 MB for
/// the paper's side-5000, 64-symbol-per-burst two-stage frame — and never
/// grows with the event count. Events in padding count toward
/// channel_symbol_errors only.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/channel.hpp"
#include "common/json.hpp"
#include "common/mathutil.hpp"
#include "dram/standards.hpp"
#include "fec/reed_solomon.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "source/source.hpp"

namespace tbi::sim {

struct PipelineConfig {
  // --- data path -----------------------------------------------------------
  std::string interleaver = "triangular";  ///< "none" | "triangular" | "block" | "two-stage"
  std::string channel = "gilbert-elliott"; ///< "none" | "bsc" | "gilbert-elliott" | "leo"
  unsigned rs_n = 255;                     ///< code word length (symbols)
  unsigned rs_k = 223;                     ///< data symbols per code word
  unsigned frames = 20;                    ///< triangular blocks to simulate
  std::uint64_t seed = 1;                  ///< root seed (data + channel)

  // --- interleaver geometry ------------------------------------------------
  /// Triangle side, decoupled from rs_n (0 = rs_n, the legacy row-aligned
  /// geometry). For "none"/"block"/"triangular" the side counts *symbols*
  /// (frame = side*(side+1)/2 symbols); for "two-stage" it counts the
  /// stage-2 *bursts* (frame = side*(side+1)/2 * symbols_per_burst
  /// symbols). Any side != rs_n selects the streaming frame path.
  std::uint64_t side = 0;
  /// Symbols packed into one DRAM burst ("two-stage" only): the stage-1
  /// SRAM block interleaver is symbols_per_burst x symbols_per_burst.
  /// The default matches a 64-byte DRAM burst of byte symbols; the
  /// paper's 3-bit-symbol geometry corresponds to 170.
  std::uint64_t symbols_per_burst = 64;

  // --- channel knobs -------------------------------------------------------
  double error_probability = 1e-3;  ///< bsc: per-symbol error probability
  double fade_fraction = 0.02;      ///< gilbert-elliott / leo: stationary bad fraction
  double mean_burst_symbols = 400;  ///< gilbert-elliott: mean fade length;
                                    ///< leo: coherence length in symbols
  double error_rate_bad = 0.5;      ///< symbol error rate inside a fade

  // --- DRAM stage (DRAM-resident interleavers: triangular, two-stage) ------
  /// Execute the interleaver's write/read phases on the simulated memory
  /// controller. Honored for every DRAM-resident interleaver
  /// ("triangular", "two-stage"); requesting it for the SRAM/identity
  /// baselines ("none", "block") is a configuration error.
  bool run_dram = true;
  dram::DeviceConfig device;        ///< required when run_dram is set
  std::string mapping_spec = "optimized";
  std::uint64_t dram_max_bursts_per_phase = 20000;  ///< 0 = full triangle
};

struct PipelineResult {
  std::uint64_t frames = 0;
  std::uint64_t code_words = 0;             ///< total code words judged
  std::uint64_t word_errors = 0;            ///< words with error weight > t
  std::uint64_t frame_errors = 0;           ///< frames with >= 1 word error
  std::uint64_t channel_symbol_errors = 0;  ///< symbols the channel corrupted
  std::uint64_t corrected_symbols = 0;      ///< error weight of the words <= t
  std::uint64_t frame_symbols = 0;          ///< interleaver symbol capacity per frame
  /// Peak bytes the frame loop holds: the per-word weight array, one
  /// byte per code word of a frame plus one padding slot. The streaming
  /// memory test bounds it by capacity / n.
  std::uint64_t workspace_peak_bytes = 0;

  // --- in-process perf counters (src/perf/counters.hpp) --------------------
  /// Host wall time of the frame loop (channel walk + weight count), ns.
  std::uint64_t host_ns = 0;
  /// operator-new allocations on this thread after the warm-up frame —
  /// the workspace-reuse invariant says this is 0 for the FER hot path.
  std::uint64_t steady_allocations = 0;
  /// Frames covered by steady_allocations (frames - 1; 0 when frames == 1,
  /// in which case allocations per frame is reported as 0, not measured).
  std::uint64_t steady_frames = 0;
  /// Symbols pushed through the channel model (0 when channel == "none").
  std::uint64_t channel_symbols = 0;

  double allocations_per_frame() const {
    return steady_frames ? static_cast<double>(steady_allocations) /
                               static_cast<double>(steady_frames)
                         : 0.0;
  }
  double channel_symbols_per_second() const {
    return host_ns ? 1e9 * static_cast<double>(channel_symbols) /
                         static_cast<double>(host_ns)
                   : 0.0;
  }

  double word_error_rate() const {
    return code_words ? static_cast<double>(word_errors) / static_cast<double>(code_words)
                      : 0.0;
  }
  double frame_error_rate() const {
    return frames ? static_cast<double>(frame_errors) / static_cast<double>(frames) : 0.0;
  }

  // DRAM feasibility of the interleaver geometry (dram_ran == false when
  // the scenario has no DRAM-resident interleaver).
  bool dram_ran = false;
  InterleaverRun dram;
  double dram_throughput_gbps = 0;
};

/// Channel factory for the pipeline's channel axis ("none" -> nullptr).
/// Symbols are RS code-word bytes, so all channels run with 8 symbol bits.
std::unique_ptr<channel::Channel> make_channel(const PipelineConfig& config);

/// The channel axis as an error source ("none" -> nullptr): make_channel
/// seeded with job_seed(config.seed, 1), the channel stream the committed
/// baselines pin.
std::unique_ptr<source::ErrorSource> make_source(const PipelineConfig& config);

/// True for interleavers whose buffer lives in simulated DRAM
/// ("triangular", "two-stage") — the ones run_dram applies to.
bool dram_resident_interleaver(const std::string& kind);

/// The exact per-cell PipelineConfig a FER sweep runs for \p scenario:
/// \p base with the scenario axes (its device looked up by name), the
/// per-cell \p seed, and run_dram narrowed to DRAM-resident interleavers.
/// run_fer_sweep builds every record's config with it, and run_pipeline on
/// that config alone reproduces the record (the DRAM stage's host timing
/// aside). Throws std::invalid_argument for an unknown scenario device.
PipelineConfig fer_cell_config(const PipelineConfig& base, const Scenario& scenario,
                               std::uint64_t seed);

/// Reject a FER grid before any of its cells runs: every cell must name
/// a valid RS(base.rs_n, k) code, a known device, interleaver and channel,
/// a frame that holds a code word (WireCursor), and a known mapping when
/// it runs the DRAM stage. run_fer_sweep calls it first, so a bad grid is
/// rejected before its first cell. Throws std::invalid_argument.
void check_fer_cells(const std::vector<Scenario>& cells, const PipelineConfig& base);

/// Which code word of a frame carries the symbol at each wire position,
/// walked forward: the frame loop's map from a channel event to its word.
///
/// Every interleaver here sends its array column by column, so the wire
/// is a run of lines whose lengths fall by a fixed step: 1 for the
/// triangle's columns (and for its rows, which the "none" row layout
/// walks), 0 for the block array's columns, spb for the two-stage
/// interleaver's stage-2 burst columns. The cursor keeps the line of the
/// last position it mapped and reaches a later one by adding line
/// lengths. A symbol's input (code-word stream) position then follows
/// from its line j and its offset i in that line: tri_row_offset(side, i)
/// + j in the triangle, i * cols + j in the block array. Two-stage caches
/// the burst of the last position: its symbol o lands at base + o * spb
/// inside a full super-block (the stage-1 transpose) and at base + o in
/// the partial tail. The word is then input / n (packed layout) or the
/// input's triangle row (row layout), and padding maps to words(). Only
/// the block row layout still takes tri_row_of: its input positions do
/// not rise along the wire.
///
/// Channels emit a frame's events in increasing wire position. A position
/// behind the cursor restarts it from the first line, so a word never
/// depends on the order of the calls, only their cost: one pass over the
/// lines per frame plus O(1) per event.
class WireCursor {
 public:
  /// Throws std::invalid_argument for an unknown interleaver, a zero
  /// symbols_per_burst, a frame past 2^64 symbols, or a streaming frame
  /// shorter than one code word. \p config's RS(n, k) must be valid.
  explicit WireCursor(const PipelineConfig& config);

  /// Frame size in symbols.
  std::uint64_t capacity() const { return capacity_; }
  /// Code words per frame; word_of() maps padding to words().
  std::uint64_t words() const { return words_; }

  /// The code word that carries wire position \p p (< capacity()) of a
  /// frame, or words() for padding.
  std::uint64_t word_of(std::uint64_t p) {
    assert(p < capacity_);  // else seek() would run past the last line
    std::uint64_t word = 0;
    switch (kind_) {
      case Kind::None:
        if (!rows_) {
          word = p / n_;
          break;
        }
        seek(p);
        word = line_;
        break;
      case Kind::Triangular: {
        seek(p);
        const std::uint64_t i = p - line_start_;
        word = rows_ ? i : (tri_row_offset(side_, i) + line_) / n_;
        break;
      }
      case Kind::Block: {
        seek(p);
        const std::uint64_t k = (p - line_start_) * cols_ + line_;
        word = rows_ ? tri_row_of(side_, k) : k / n_;
        break;
      }
      case Kind::TwoStage:
        // Unsigned: a position before the cached burst fails the test too.
        if (p - burst_start_ >= spb_.value()) enter_burst(p);
        word = (burst_base_ + (p - burst_start_) * burst_stride_) / n_;
        break;
    }
    return std::min(word, words_);
  }

 private:
  enum class Kind { None, Triangular, Block, TwoStage };

  /// Move to the line that holds \p p.
  void seek(std::uint64_t p) {
    if (p < line_start_) {
      line_ = 0;
      line_start_ = 0;
      line_len_ = first_len_;
    }
    while (p - line_start_ >= line_len_) {
      line_start_ += line_len_;
      line_len_ -= shrink_;
      ++line_;
    }
  }

  /// Two-stage: cache the burst that holds \p p.
  void enter_burst(std::uint64_t p);

  Kind kind_ = Kind::None;
  bool rows_ = false;          ///< row layout (else packed)
  std::uint64_t side_ = 0;     ///< triangle side: symbols, or bursts for two-stage
  Divisor n_;                  ///< code word length
  std::uint64_t words_ = 0;
  std::uint64_t capacity_ = 0;
  std::uint64_t cols_ = 0;     ///< block: columns of the rows x cols array

  // The line walk: line_ starts at wire position line_start_ and holds
  // line_len_ symbols; the next line is shrink_ symbols shorter.
  std::uint64_t first_len_ = 0;
  std::uint64_t shrink_ = 0;
  std::uint64_t line_ = 0;
  std::uint64_t line_start_ = 0;
  std::uint64_t line_len_ = 0;

  // Two-stage: the cached burst holds wire positions
  // [burst_start_, burst_start_ + spb); its symbol o has input position
  // burst_base_ + o * burst_stride_.
  Divisor spb_;
  std::uint64_t tail_burst_ = 0;  ///< first stage-2 input burst of the partial tail
  std::uint64_t burst_start_ = 0;
  std::uint64_t burst_base_ = 0;
  std::uint64_t burst_stride_ = 0;
};

/// The frame loop alone: \p config.frames frames through the interleaver,
/// each word judged by the error weight that \p source's events put on
/// it (nullptr: a clean channel). The wire position runs on from frame to
/// frame, so the source walks one forward stream. Throws
/// std::invalid_argument for an invalid code, frame count, interleaver or
/// side.
PipelineResult run_frames(const PipelineConfig& config, source::ErrorSource* source);

/// Simulate \p config.frames triangular blocks end to end: run_frames on
/// make_source(config) and, when configured, the DRAM phases of the
/// DRAM-resident interleaver ("triangular" or "two-stage"). It always runs
/// its own DRAM stage; only a FER sweep (run_fer_sweep) shares one among
/// cells.
PipelineResult run_pipeline(const PipelineConfig& config);

/// As above, but with a caller-provided codec, whose rs.n()/rs.k() must
/// match the config. The frame loop only needs the code's parameters, so
/// both overloads produce identical results.
PipelineResult run_pipeline(const PipelineConfig& config, const fec::ReedSolomon& rs);

/// True when \p config takes the streaming frame path (side decoupled
/// from rs_n, or the "two-stage" interleaver).
bool pipeline_streams(const PipelineConfig& config);

// ---------------------------------------------------------------------------
// FER sweeps on the scenario grid
// ---------------------------------------------------------------------------

struct FerSweepOptions {
  SweepOptions sweep;
  /// Template for every cell. The grid names each cell's device,
  /// mapping_spec, interleaver, channel and rs_k, so the template's device
  /// is never read; the seed is replaced by the deterministic per-job
  /// seed, and run_dram is narrowed to the cells whose interleaver is
  /// DRAM-resident. The sweep runs each distinct DRAM stage once (see
  /// run_fer_sweep).
  PipelineConfig base;
};

struct FerRecord {
  Scenario scenario;
  PipelineConfig config;
  PipelineResult result;
};

/// Run the full pipeline for every cell of the grid; records are
/// index-ordered and independent of the thread count.
///
/// The grid is checked first (check_fer_cells). A cell's DRAM stage has
/// no random input: it is run_interleaver on the RunConfig built from the
/// cell's device, mapping, burst-triangle side and burst cap, never from
/// its channel, code rate or seed. So the sweep collects the distinct
/// RunConfigs, compared on every field (device timing and energy
/// included), not by device name, and runs in two sweep_map passes: one
/// run_interleaver per distinct input, then every cell's frame loop, with
/// its input's run attached. Every record equals
/// run_pipeline(record.config) except for the DRAM phases' host_ns:
/// cells sharing a run report its dram_sched_ns_per_pick. The progress
/// callback counts cells only.
std::vector<FerRecord> run_fer_sweep(const SweepGrid& grid, const FerSweepOptions& options);

/// The one FER row: bench_fer's output record for one cell, host timing
/// included. bench_fer --stable-json drops the host timing
/// (perf::without_host_timing).
Json fer_record(const Scenario& scenario, const PipelineResult& result);

}  // namespace tbi::sim
