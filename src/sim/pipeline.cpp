#include "sim/pipeline.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "channel/bsc.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/leo.hpp"
#include "common/mathutil.hpp"
#include "interleaver/streams.hpp"
#include "mapping/factory.hpp"
#include "perf/counters.hpp"

namespace tbi::sim {

namespace {

constexpr unsigned kChannelSymbolBits = 8;  // RS symbols are bytes

std::uint64_t frame_side(const PipelineConfig& config) {
  return config.side != 0 ? config.side : config.rs_n;
}

/// run_pipeline's frame loop over frames of \p words code words.
/// \p add_events(f, weights) adds 1 to weights[w] for every corrupted
/// symbol of frame f, w being its word (WireCursor::word_of); then every
/// word is judged by its error weight alone.
///
/// That is exact, not a model: RS is linear and the channel's flips do
/// not depend on the data, so a bounded-distance decoder given
/// codeword + error returns the codeword, with as many corrections as the
/// error has symbols, iff the error weight is <= t = (n - k) / 2. Past t
/// it either fails or lands on another codeword, which differs from the
/// sent one in the payload (systematic encoding is injective) or, for a
/// shortened row, in the zero prefix no row codeword has — a word error
/// either way.
///
/// Weights are one byte per word and cannot wrap: a frame's events sit at
/// distinct positions, so a word collects at most n <= 255 of them. The
/// padding slot may wrap, but it is never judged.
template <typename AddEvents>
void count_frames(const PipelineConfig& config, std::uint64_t words,
                  PipelineResult& result, AddEvents&& add_events) {
  const unsigned t = (config.rs_n - config.rs_k) / 2;
  std::vector<std::uint8_t> weights(words + 1, 0);

  const std::uint64_t host_start = perf::now_ns();
  perf::AllocationScope alloc_scope;
  for (unsigned f = 0; f < config.frames; ++f) {
    // Frame 0 is the warm-up; the steady-state window starts after it.
    if (f == 1) alloc_scope.restart();
    add_events(f, weights.data());
    std::uint64_t failures = 0;
    for (std::uint64_t w = 0; w < words; ++w) {
      if (weights[w] > t) {
        ++failures;
      } else {
        result.corrected_symbols += weights[w];
      }
    }
    std::fill(weights.begin(), weights.end(), 0);
    result.code_words += words;
    result.word_errors += failures;
    result.frame_errors += failures != 0;
  }
  result.host_ns += perf::now_ns() - host_start;
  result.steady_allocations = config.frames > 1 ? alloc_scope.allocations() : 0;
  result.steady_frames = config.frames - 1;
  result.workspace_peak_bytes =
      std::max<std::uint64_t>(result.workspace_peak_bytes, weights.capacity());
}

/// The input of \p config's DRAM stage, or nullopt when run_dram is
/// off. The stage is honored for every DRAM-resident interleaver.
/// "block" is the SRAM stage-1 structure and "none" buffers nothing, so
/// asking for their DRAM phases is a configuration error, not a silent
/// no-op.
std::optional<RunConfig> dram_run_config(const PipelineConfig& config) {
  if (!config.run_dram) return std::nullopt;
  if (!dram_resident_interleaver(config.interleaver)) {
    throw std::invalid_argument(
        "pipeline: run_dram requires a DRAM-resident interleaver "
        "('triangular' or 'two-stage'); '" +
        config.interleaver +
        "' never touches DRAM — set run_dram = false for it");
  }
  if (config.device.name.empty()) {
    throw std::invalid_argument("pipeline: run_dram requires a device");
  }
  const std::uint64_t side = frame_side(config);
  RunConfig rc;
  rc.device = config.device;
  rc.mapping_spec = config.mapping_spec;
  // The two-stage geometry is already burst-granular: its stage-2 side
  // *is* the burst triangle. A symbol-level triangular frame is packed
  // into bursts of the device's burst size first.
  rc.side = config.interleaver == "two-stage"
                ? side
                : interleaver::burst_triangle_side(triangular_number(side),
                                                   kChannelSymbolBits,
                                                   config.device.burst_bytes);
  rc.max_bursts_per_phase = config.dram_max_bursts_per_phase;
  return rc;
}

void attach_dram(PipelineResult& result, const InterleaverRun& run,
                 const dram::DeviceConfig& device) {
  result.dram = run;
  result.dram_ran = true;
  result.dram_throughput_gbps = run.throughput_gbps(device.burst_bytes);
}

}  // namespace

WireCursor::WireCursor(const PipelineConfig& config)
    : rows_(!pipeline_streams(config)),
      side_(frame_side(config)),
      n_(config.rs_n),
      spb_(std::max<std::uint64_t>(config.symbols_per_burst, 1)) {
  using U128 = unsigned __int128;
  const U128 symbols = U128{side_} * (U128{side_} + 1) / 2;  // T(side)
  if (symbols >> 64 != 0) throw std::invalid_argument("pipeline: side too large");
  capacity_ = static_cast<std::uint64_t>(symbols);
  first_len_ = side_;
  shrink_ = 1;
  if (config.interleaver == "none") {
    kind_ = Kind::None;
  } else if (config.interleaver == "triangular") {
    kind_ = Kind::Triangular;
  } else if (config.interleaver == "block") {
    // T(side) = side*(side+1)/2 factors exactly as rows x cols with
    // rows = side (side odd) or side+1 (side even); the wire reads the
    // rows x cols array column by column.
    kind_ = Kind::Block;
    first_len_ = side_ % 2 == 1 ? side_ : side_ + 1;
    cols_ = capacity_ / first_len_;
    shrink_ = 0;
  } else if (config.interleaver == "two-stage") {
    kind_ = Kind::TwoStage;
    if (config.symbols_per_burst == 0) {
      throw std::invalid_argument("pipeline: symbols_per_burst must be > 0");
    }
    const std::uint64_t spb = spb_.value();
    if (__builtin_mul_overflow(capacity_, spb, &capacity_)) {
      throw std::invalid_argument("pipeline: side too large");
    }
    // The stage-2 triangle counts bursts; its columns are bursts of spb
    // symbols. Stage 1 transposes only full super-blocks of spb bursts.
    tail_burst_ = triangular_number(side_) / spb * spb;
    first_len_ = side_ * spb;
    shrink_ = spb;
    burst_start_ = capacity_;  // no burst cached: p - capacity_ wraps past spb
  } else {
    throw std::invalid_argument("pipeline: unknown interleaver '" + config.interleaver +
                                "'");
  }
  if (!rows_ && capacity_ < config.rs_n) {
    throw std::invalid_argument("pipeline: side too small for one RS code word");
  }
  words_ = rows_ ? side_ - (config.rs_n - config.rs_k) : capacity_ / config.rs_n;
  line_len_ = first_len_;
}

void WireCursor::enter_burst(std::uint64_t p) {
  seek(p);
  const std::uint64_t spb = spb_.value();
  const std::uint64_t i = (p - line_start_) / spb_;  // row of column line_
  const std::uint64_t burst = tri_row_offset(side_, i) + line_;  // stage-2 input
  burst_start_ = line_start_ + i * spb;
  if (burst < tail_burst_) {
    // Burst r of super-block sb: the stage-1 transpose sent its symbol o
    // from input position sb * spb^2 + o * spb + r.
    const std::uint64_t sb = burst / spb_;
    burst_base_ = sb * spb * spb + (burst - sb * spb);
    burst_stride_ = spb;
  } else {
    burst_base_ = burst * spb;  // the partial tail keeps its order
    burst_stride_ = 1;
  }
}

PipelineResult run_frames(const PipelineConfig& config, source::ErrorSource* src) {
  if (config.rs_n > 255 || config.rs_k == 0 || config.rs_k >= config.rs_n ||
      (config.rs_n - config.rs_k) % 2 != 0) {
    throw std::invalid_argument("pipeline: invalid RS(n, k)");
  }
  if (config.frames == 0) {
    throw std::invalid_argument("pipeline: frames must be > 0");
  }
  WireCursor cursor(config);
  const std::uint64_t capacity = cursor.capacity();

  PipelineResult result;
  result.frames = config.frames;
  result.frame_symbols = capacity;
  count_frames(config, cursor.words(), result, [&](unsigned f, std::uint8_t* weights) {
    if (src == nullptr) return;
    // The wire position advances contiguously frame to frame, so the
    // source's channel state stays continuous in symbol time. Every
    // frame has the same map, so the cursor carries on from frame to
    // frame: a frame's first event restarts it if it lies behind.
    const std::uint64_t frame_base = static_cast<std::uint64_t>(f) * capacity;
    auto count = [&](const source::Corruption& e) {
      ++weights[cursor.word_of(e.wire_pos - frame_base)];
    };
    result.channel_symbols += capacity;
    result.channel_symbol_errors += src->events(frame_base, capacity, count);
  });
  return result;
}

bool dram_resident_interleaver(const std::string& kind) {
  return kind == "triangular" || kind == "two-stage";
}

PipelineConfig fer_cell_config(const PipelineConfig& base, const Scenario& scenario,
                               std::uint64_t seed) {
  PipelineConfig config = base;
  config.interleaver = scenario.interleaver;
  config.channel = scenario.channel;
  config.rs_k = scenario.rs_k;
  config.mapping_spec = scenario.mapping_spec;
  // The DRAM stage only exists for DRAM-resident interleavers; narrow the
  // template's run_dram so mixed grids stay valid.
  config.run_dram = base.run_dram && dram_resident_interleaver(scenario.interleaver);
  config.seed = seed;
  const auto* device = dram::find_config(scenario.device);
  if (device == nullptr) {
    throw std::invalid_argument("fer sweep: unknown device '" + scenario.device + "'");
  }
  config.device = *device;
  return config;
}

std::unique_ptr<channel::Channel> make_channel(const PipelineConfig& config) {
  if (config.channel == "none") {
    return nullptr;
  }
  if (config.channel == "bsc") {
    return std::make_unique<channel::SymmetricChannel>(config.error_probability,
                                                       kChannelSymbolBits);
  }
  if (config.channel == "gilbert-elliott") {
    return std::make_unique<channel::GilbertElliottChannel>(
        channel::GilbertElliottParams::from_burst_profile(
            config.mean_burst_symbols, config.fade_fraction,
            config.error_rate_bad, kChannelSymbolBits));
  }
  if (config.channel == "leo") {
    channel::LeoChannelParams p;
    // Express the fade geometry in symbols directly: one "second" == one
    // symbol, so the coherence time is mean_burst_symbols.
    p.symbol_rate_hz = 1.0;
    p.coherence_time_s = config.mean_burst_symbols;
    p.fade_probability = config.fade_fraction;
    p.fade_depth_error_rate = config.error_rate_bad;
    p.symbol_bits = kChannelSymbolBits;
    p.symbols_per_sample = static_cast<unsigned>(
        std::max<double>(1.0, config.mean_burst_symbols / 16.0));
    return std::make_unique<channel::LeoFadingChannel>(p);
  }
  throw std::invalid_argument("pipeline: unknown channel '" + config.channel + "'");
}

std::unique_ptr<source::ErrorSource> make_source(const PipelineConfig& config) {
  auto channel = make_channel(config);
  if (channel == nullptr) return nullptr;
  // Index 1 off the cell seed is the channel stream: the committed
  // baselines pin its draws.
  return std::make_unique<source::ErrorSource>(std::move(channel),
                                               job_seed(config.seed, 1));
}

PipelineResult run_pipeline(const PipelineConfig& config,
                            const fec::ReedSolomon& rs) {
  if (rs.n() != config.rs_n || rs.k() != config.rs_k) {
    throw std::invalid_argument("pipeline: codec does not match config");
  }
  return run_pipeline(config);
}

PipelineResult run_pipeline(const PipelineConfig& config) {
  PipelineResult result = run_frames(config, make_source(config).get());
  if (const auto rc = dram_run_config(config)) {
    attach_dram(result, run_interleaver(*rc), config.device);
  }
  return result;
}

bool pipeline_streams(const PipelineConfig& config) {
  // Two-stage frames are always streamed (the stage-2 triangle is
  // burst-granular, there is no row-aligned layout for it); the classic
  // kinds stream exactly when the side is decoupled from the code word.
  return config.interleaver == "two-stage" || frame_side(config) != config.rs_n;
}

void check_fer_cells(const std::vector<Scenario>& cells, const PipelineConfig& base) {
  for (const auto& cell : cells) {
    if (base.rs_n > 255 || cell.rs_k == 0 || cell.rs_k >= base.rs_n ||
        (base.rs_n - cell.rs_k) % 2 != 0) {
      throw std::invalid_argument("fer sweep: invalid RS(" + std::to_string(base.rs_n) +
                                  ", " + std::to_string(cell.rs_k) + ")");
    }
    // Throws for an unknown device, interleaver or channel, a frame that
    // holds no code word, and below for an unknown mapping, with the
    // texts the cell itself would throw.
    const PipelineConfig config = fer_cell_config(base, cell, base.seed);
    WireCursor{config};
    make_channel(config);
    if (const auto rc = dram_run_config(config)) {
      mapping::make_mapping(rc->mapping_spec, rc->device, rc->side);
    }
  }
}

std::vector<FerRecord> run_fer_sweep(const SweepGrid& grid, const FerSweepOptions& options) {
  const PipelineConfig& base = options.base;
  const std::vector<Scenario> cells = grid.expand();
  check_fer_cells(cells, base);

  // Each cell's index into the distinct DRAM inputs, kNoDram without a
  // DRAM stage. The seed never reaches the DRAM stage.
  constexpr std::size_t kNoDram = SIZE_MAX;
  std::vector<RunConfig> inputs;
  std::vector<std::size_t> input_of;
  input_of.reserve(cells.size());
  for (const Scenario& cell : cells) {
    const auto rc = dram_run_config(fer_cell_config(base, cell, base.seed));
    std::size_t input = kNoDram;
    if (rc) {
      input = static_cast<std::size_t>(std::find(inputs.begin(), inputs.end(), *rc) -
                                       inputs.begin());
      if (input == inputs.size()) inputs.push_back(*rc);
    }
    input_of.push_back(input);
  }

  SweepOptions dram_pass = options.sweep;
  dram_pass.progress = nullptr;  // progress counts cells
  const std::vector<InterleaverRun> runs =
      sweep_map(inputs.size(), dram_pass, [&](std::uint64_t input, std::uint64_t) {
        return run_interleaver(inputs[input]);
      });

  return sweep_map(cells.size(), options.sweep, [&](std::uint64_t index, std::uint64_t seed) {
    FerRecord record;
    record.scenario = cells[index];
    record.config = fer_cell_config(base, record.scenario, seed);
    record.result = run_frames(record.config, make_source(record.config).get());
    if (const std::size_t input = input_of[index]; input != kNoDram) {
      attach_dram(record.result, runs[input], inputs[input].device);
    }
    return record;
  });
}

Json fer_record(const Scenario& scenario, const PipelineResult& result) {
  Json row;
  row["interleaver"] = scenario.interleaver;
  row["channel"] = scenario.channel;
  row["rs_k"] = static_cast<std::uint64_t>(scenario.rs_k);
  row["frame_symbols"] = result.frame_symbols;
  row["code_words"] = result.code_words;
  row["word_errors"] = result.word_errors;
  row["frame_errors"] = result.frame_errors;
  row["channel_symbol_errors"] = result.channel_symbol_errors;
  row["corrected_symbols"] = result.corrected_symbols;
  row["wer"] = result.word_error_rate();
  row["fer"] = result.frame_error_rate();
  // Perf counters (src/perf/counters.hpp): exact fields pin the
  // zero-allocation hot-path invariant, *_ns / *_per_second fields are
  // host timing and only band-checked by bench_compare.
  row["workspace_peak_bytes"] = result.workspace_peak_bytes;
  row["steady_allocations"] = result.steady_allocations;
  row["steady_frames"] = result.steady_frames;
  row["allocations_per_frame"] = result.allocations_per_frame();
  row["host_ns"] = result.host_ns;
  row["channel_symbols"] = result.channel_symbols;
  row["channel_symbols_per_second"] = result.channel_symbols_per_second();
  if (result.dram_ran) {
    row["dram_throughput_gbps"] = result.dram_throughput_gbps;
    row["dram_bursts"] = result.dram.total_bursts();
    row["dram_sched_ns_per_pick"] = result.dram.sched_ns_per_pick();
  }
  return row;
}

}  // namespace tbi::sim
