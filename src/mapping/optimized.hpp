/// \file optimized.hpp
/// The paper's optimized mapping (§II), reconstructed as documented in
/// DESIGN.md §3. Three composable optimizations:
///
///  1. Diagonal bank round-robin (Fig. 1a): bank = (x + y) mod NB with
///     bank-group-major flat bank ids, so the bank group switches with
///     every access in both walk directions and consecutive bursts pay
///     tCCD_S instead of tCCD_L.
///  2. Page tiling (Fig. 1b/c): the index space is cut into Tw x Th tiles
///     with Tw*Th = NB*CPP cells; each tile holds exactly one DRAM page
///     per bank, so page misses are split evenly between the row-wise and
///     the column-wise phase (one miss per bank per tile crossing).
///  3. Bank-dependent column offset (Fig. 1d): the coordinates used for
///     tile lookup are circularly shifted by (Tw/NB, Th/NB) per bank
///     index, staggering the tile-boundary page misses of the NB banks
///     evenly across the crossing instead of letting them all stall the
///     bus simultaneously.
///
/// Every step is an add / shift / mask — the mapping is hardware-friendly
/// exactly as the paper claims; bench_mapping_cost measures it. That needs
/// a power-of-two bank count and page size, which every JEDEC device has;
/// the constructor refuses any other geometry.
#pragma once

#include "dram/standards.hpp"
#include "mapping/mapping.hpp"

namespace tbi::mapping {

/// Feature toggles for the ablation study (E5). The full optimized
/// mapping is the default; disabling a flag degenerates as described in
/// DESIGN.md §3.
struct OptimizedOptions {
  bool diagonal_banks = true;
  bool page_tiling = true;
  bool column_offset = true;  ///< requires diagonal_banks && page_tiling
};

class OptimizedMapping final : public IndexMapping {
 public:
  /// Throws std::invalid_argument for side 0, for a bank count or page
  /// size that is not a power of two, and for a geometry that does not
  /// fit the device.
  OptimizedMapping(const dram::DeviceConfig& device, std::uint64_t side,
                   OptimizedOptions options = {});

  dram::Address map(std::uint64_t i, std::uint64_t j) const override;
  void map_run(std::uint64_t i, std::uint64_t j, bool along_row, std::size_t count,
               dram::Address* out) const override;
  const IndexSpace& space() const override { return space_; }
  std::string name() const override;

  // Geometry introspection (tests, visualizer).
  std::uint64_t tile_width() const { return tile_w_; }
  std::uint64_t tile_height() const { return tile_h_; }
  std::uint64_t offset_dx() const { return dx_; }
  std::uint64_t offset_dy() const { return dy_; }
  const OptimizedOptions& options() const { return options_; }

 private:
  /// Inline (defined in optimized.cpp, its only caller) so map_run's
  /// loop makes no call per position.
  inline dram::Address map_full(std::uint64_t x, std::uint64_t y) const;
  dram::Address map_tiling_only(std::uint64_t x, std::uint64_t y) const;
  dram::Address map_diagonal_only(std::uint64_t x, std::uint64_t y) const;
  dram::Address map_none(std::uint64_t x, std::uint64_t y) const;

  IndexSpace space_;
  OptimizedOptions options_;
  std::uint64_t banks_ = 0;    ///< NB
  std::uint64_t cpp_ = 0;      ///< columns per page (bursts)
  std::uint64_t tile_w_ = 0;   ///< Tw
  std::uint64_t tile_h_ = 0;   ///< Th
  std::uint64_t tiles_x_ = 0;  ///< width / Tw
  std::uint64_t dx_ = 0;       ///< per-bank shift in x (Tw / NB)
  std::uint64_t dy_ = 0;       ///< per-bank shift in y (Th / NB)
  std::uint32_t rows_ = 0;     ///< rows_per_bank (bounds check)
  unsigned bank_shift_ = 0;   ///< log2(NB)
  unsigned tw_shift_ = 0;     ///< log2(Tw)
  unsigned th_shift_ = 0;     ///< log2(Th)
};

}  // namespace tbi::mapping
