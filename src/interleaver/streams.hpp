/// \file streams.hpp
/// DRAM request streams for the interleaver's two access phases.
///
/// The write phase visits the triangular burst grid row-wise (as code
/// words arrive from the transmitter chain), the read phase column-wise
/// (as interleaved bursts leave toward the modulator). Streams generate
/// addresses lazily through an IndexMapping, so even the 12.5 M-element
/// configuration never materializes a request vector.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/mathutil.hpp"
#include "dram/stream.hpp"
#include "mapping/mapping.hpp"

namespace tbi::interleaver {

/// Burst-granular triangle side for a symbol-level interleaver:
/// ceil(total_symbols * symbol_bits / (8 * burst_bytes)) bursts, rounded
/// up to the next triangular number's side. Throws std::invalid_argument
/// when total_symbols * symbol_bits exceeds 2^64 - 1.
std::uint64_t burst_triangle_side(std::uint64_t total_symbols, unsigned symbol_bits,
                                  unsigned burst_bytes);

/// The one walk behind both phase streams: the burst triangle row by row
/// (along_row) or column by column, mapped a run at a time through
/// IndexMapping::map_run and optionally truncated to max_bursts.
class TriangleWalk {
 public:
  /// Longest run one call maps.
  static constexpr std::size_t kRun = 64;

  TriangleWalk(const mapping::IndexMapping& mapping, std::uint64_t max_bursts,
               bool along_row)
      : mapping_(mapping),
        side_(mapping.space().side),
        limit_(max_bursts),
        along_row_(along_row) {}

  /// Fill up to \p max requests, never past the end of the current row
  /// (column); returns how many, 0 only at the end of the walk.
  std::size_t next_run(dram::Request* out, std::size_t max);

 private:
  const mapping::IndexMapping& mapping_;
  std::uint64_t side_;
  std::uint64_t limit_;
  bool along_row_;
  std::uint64_t i_ = 0;
  std::uint64_t j_ = 0;
  std::uint64_t produced_ = 0;
  std::array<dram::Address, kRun> run_{};  ///< map_run's output
};

/// Row-wise walk (write phase). Optionally truncated to max_bursts.
class WritePhaseStream final : public dram::RequestStream {
 public:
  explicit WritePhaseStream(const mapping::IndexMapping& mapping,
                            std::uint64_t max_bursts = 0)
      : walk_(mapping, max_bursts, true) {}

  bool next(dram::Request& out) override { return walk_.next_run(&out, 1) == 1; }
  std::size_t next_batch(dram::Request* out, std::size_t max) override {
    return walk_.next_run(out, max);
  }

 private:
  TriangleWalk walk_;
};

/// Column-wise walk (read phase). Optionally truncated to max_bursts.
class ReadPhaseStream final : public dram::RequestStream {
 public:
  explicit ReadPhaseStream(const mapping::IndexMapping& mapping,
                           std::uint64_t max_bursts = 0)
      : walk_(mapping, max_bursts, false) {}

  bool next(dram::Request& out) override { return walk_.next_run(&out, 1) == 1; }
  std::size_t next_batch(dram::Request* out, std::size_t max) override {
    return walk_.next_run(out, max);
  }

 private:
  TriangleWalk walk_;
};

/// Continuous (double-buffered) operation: while interleaver block k+1 is
/// written row-wise into one DRAM region, block k is read column-wise from
/// another. Requests alternate write/read 1:1 (both move the same total
/// data), so the memory controller sees the realistic mixed stream with
/// its read/write turnaround penalties instead of two idealized pure
/// phases. Ends when both walks finish.
class StreamingPhaseStream final : public dram::RequestStream {
 public:
  /// \p write_mapping and \p read_mapping must target disjoint DRAM rows
  /// (see mapping::RowOffsetMapping).
  StreamingPhaseStream(const mapping::IndexMapping& write_mapping,
                       const mapping::IndexMapping& read_mapping,
                       std::uint64_t max_bursts = 0)
      : write_(write_mapping, max_bursts), read_(read_mapping, max_bursts) {}

  bool next(dram::Request& out) override { return next_batch(&out, 1) == 1; }
  std::size_t next_batch(dram::Request* out, std::size_t max) override;

 private:
  WritePhaseStream write_;
  ReadPhaseStream read_;
  /// One call's share of each walk, before they are interleaved.
  std::array<dram::Request, TriangleWalk::kRun> writes_{};
  std::array<dram::Request, TriangleWalk::kRun> reads_{};
  bool write_turn_ = true;
  bool write_done_ = false;
  bool read_done_ = false;
};

}  // namespace tbi::interleaver
