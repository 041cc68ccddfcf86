#include "mapping/optimized.hpp"

#include <stdexcept>

#include "common/bits.hpp"
#include "common/mathutil.hpp"

namespace tbi::mapping {

OptimizedMapping::OptimizedMapping(const dram::DeviceConfig& device,
                                   std::uint64_t side, OptimizedOptions options)
    : options_(options),
      banks_(device.banks),
      cpp_(device.columns_per_page),
      rows_(device.rows_per_bank) {
  if (side == 0) throw std::invalid_argument("OptimizedMapping: side must be > 0");
  if (!is_pow2(banks_) || !is_pow2(cpp_)) {
    throw std::invalid_argument(
        "OptimizedMapping: banks and columns per page must be powers of two");
  }
  if (options_.column_offset && !(options_.diagonal_banks && options_.page_tiling)) {
    throw std::invalid_argument(
        "OptimizedMapping: column offset requires diagonal banks and page tiling");
  }

  // Tile area: one page per bank per tile (full scheme) or exactly one
  // page per tile (tiling-only ablation). Near-square power-of-two split.
  if (options_.page_tiling) {
    const std::uint64_t area = options_.diagonal_banks ? banks_ * cpp_ : cpp_;
    const unsigned k = ilog2(area);
    tile_w_ = std::uint64_t{1} << ((k + 1) / 2);
    tile_h_ = std::uint64_t{1} << (k / 2);
    if (options_.diagonal_banks && (tile_w_ % banks_ != 0 || tile_h_ % banks_ != 0)) {
      // Rebalance so both tile dimensions stay multiples of NB (needed for
      // the per-bank column bijection); favor width.
      tile_h_ = banks_;
      tile_w_ = area / tile_h_;
      if (tile_w_ % banks_ != 0) {
        throw std::invalid_argument("OptimizedMapping: page/bank geometry unsupported");
      }
    }
  } else if (options_.diagonal_banks) {
    tile_w_ = banks_;  // padding granularity only
    tile_h_ = banks_;
  } else {
    tile_w_ = 1;
    tile_h_ = 1;
  }

  space_.side = side;
  space_.width = round_up(side, tile_w_);
  space_.height = round_up(side, tile_h_);
  tiles_x_ = space_.width / tile_w_;

  if (options_.column_offset) {
    dx_ = tile_w_ / banks_;
    dy_ = tile_h_ / banks_;
  }

  // Capacity check: number of DRAM rows consumed per bank.
  std::uint64_t rows_needed = 0;
  if (options_.page_tiling && options_.diagonal_banks) {
    rows_needed = tiles_x_ * (space_.height / tile_h_);
  } else if (options_.page_tiling) {
    rows_needed = tiles_x_ * (space_.height / tile_h_);  // one row id per tile
  } else {
    rows_needed = div_ceil(space_.width * space_.height, banks_ * cpp_);
  }
  if (rows_needed > rows_) {
    throw std::invalid_argument("OptimizedMapping: interleaver exceeds device rows");
  }

  // NB, CPP and so tile_w_/tile_h_ are powers of two: the hot path is
  // pure add/shift/mask.
  bank_shift_ = ilog2(banks_);
  tw_shift_ = ilog2(tile_w_);
  th_shift_ = ilog2(tile_h_);
}

dram::Address OptimizedMapping::map(std::uint64_t i, std::uint64_t j) const {
  // Paper orientation: x runs along a code-word row (write direction),
  // y down the columns (read direction).
  const std::uint64_t x = j;
  const std::uint64_t y = i;
  if (options_.page_tiling && options_.diagonal_banks) return map_full(x, y);
  if (options_.page_tiling) return map_tiling_only(x, y);
  if (options_.diagonal_banks) return map_diagonal_only(x, y);
  return map_none(x, y);
}

void OptimizedMapping::map_run(std::uint64_t i, std::uint64_t j, bool along_row,
                                std::size_t count, dram::Address* out) const {
  if (!(options_.page_tiling && options_.diagonal_banks)) {
    IndexMapping::map_run(i, j, along_row, count, out);  // ablation corners
    return;
  }
  // x = j, y = i as in map().
  if (along_row) {
    for (std::size_t k = 0; k < count; ++k) out[k] = map_full(j + k, i);
  } else {
    for (std::size_t k = 0; k < count; ++k) out[k] = map_full(j, i + k);
  }
}

dram::Address OptimizedMapping::map_full(std::uint64_t x, std::uint64_t y) const {
  // The circular offsets stay reductions by one conditional subtract
  // because bank*dx_ < Tw <= width (same for y).
  const std::uint64_t bank = (x + y) & (banks_ - 1);               // optimization 1
  std::uint64_t u = x + bank * dx_;                                // optimization 3
  if (u >= space_.width) u -= space_.width;
  std::uint64_t v = y + bank * dy_;
  if (v >= space_.height) v -= space_.height;
  const std::uint64_t tile_x = u >> tw_shift_;                     // optimization 2
  const std::uint64_t tile_y = v >> th_shift_;
  const std::uint64_t rank = ((v & (tile_h_ - 1)) << tw_shift_) | (u & (tile_w_ - 1));
  dram::Address a;
  a.bank = static_cast<std::uint32_t>(bank);
  a.row = static_cast<std::uint32_t>(tile_y * tiles_x_ + tile_x);
  a.column = static_cast<std::uint32_t>(rank >> bank_shift_);
  return a;
}

dram::Address OptimizedMapping::map_tiling_only(std::uint64_t x, std::uint64_t y) const {
  const std::uint64_t tile_x = x / tile_w_;
  const std::uint64_t tile_y = y / tile_h_;
  dram::Address a;
  a.bank = static_cast<std::uint32_t>((tile_x + tile_y) % banks_);
  a.row = static_cast<std::uint32_t>(tile_y * tiles_x_ + tile_x);
  a.column = static_cast<std::uint32_t>((y % tile_h_) * tile_w_ + (x % tile_w_));
  return a;
}

dram::Address OptimizedMapping::map_diagonal_only(std::uint64_t x, std::uint64_t y) const {
  const std::uint64_t bank = (x + y) % banks_;
  // Per-bank row-major linearization; along a row the bank's positions sit
  // every NB cells, so x/NB enumerates them.
  const std::uint64_t p = y * (space_.width / banks_) + x / banks_;
  dram::Address a;
  a.bank = static_cast<std::uint32_t>(bank);
  a.column = static_cast<std::uint32_t>(p % cpp_);
  a.row = static_cast<std::uint32_t>(p / cpp_);
  return a;
}

dram::Address OptimizedMapping::map_none(std::uint64_t x, std::uint64_t y) const {
  // Square row-major with a conventional Ro-Ba-Co split; only reachable in
  // the "all optimizations off" ablation corner.
  const std::uint64_t linear = y * space_.width + x;
  dram::Address a;
  a.column = static_cast<std::uint32_t>(linear % cpp_);
  a.bank = static_cast<std::uint32_t>((linear / cpp_) % banks_);
  a.row = static_cast<std::uint32_t>(linear / (cpp_ * banks_));
  return a;
}

std::string OptimizedMapping::name() const {
  std::string n = "optimized[";
  n += options_.diagonal_banks ? "diag" : "-";
  n += options_.page_tiling ? ",tile" : ",-";
  n += options_.column_offset ? ",offset]" : ",-]";
  return n;
}

}  // namespace tbi::mapping
