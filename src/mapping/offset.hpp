/// \file offset.hpp
/// Row-offset adapter: places a mapping's image in a different DRAM row
/// region. Used for double-buffered continuous operation, where the
/// interleaver block being read and the block being written must occupy
/// disjoint pages (sim::run_streaming).
#pragma once

#include <memory>
#include <stdexcept>

#include "mapping/mapping.hpp"

namespace tbi::mapping {

class RowOffsetMapping final : public IndexMapping {
 public:
  /// Wraps \p inner, adding \p row_offset to every produced DRAM row.
  /// \p rows_per_bank bounds the shifted image. space() carries no row
  /// count, so the constructor only rejects a null \p inner; map() and
  /// map_run() check each shifted row, in every build, and throw
  /// std::out_of_range for one at or beyond \p rows_per_bank.
  RowOffsetMapping(std::unique_ptr<IndexMapping> inner, std::uint32_t row_offset,
                   std::uint32_t rows_per_bank)
      : inner_(std::move(inner)), row_offset_(row_offset), rows_(rows_per_bank) {
    if (!inner_) throw std::invalid_argument("RowOffsetMapping: null inner mapping");
  }

  dram::Address map(std::uint64_t i, std::uint64_t j) const override {
    dram::Address a = inner_->map(i, j);
    shift(a);
    return a;
  }

  void map_run(std::uint64_t i, std::uint64_t j, bool along_row, std::size_t count,
               dram::Address* out) const override {
    inner_->map_run(i, j, along_row, count, out);
    for (std::size_t k = 0; k < count; ++k) shift(out[k]);
  }

  const IndexSpace& space() const override { return inner_->space(); }

  std::string name() const override {
    return inner_->name() + "+rows:" + std::to_string(row_offset_);
  }

  std::uint32_t row_offset() const { return row_offset_; }

 private:
  void shift(dram::Address& a) const {
    const std::uint64_t row = std::uint64_t{a.row} + row_offset_;
    if (row >= rows_) {
      throw std::out_of_range("RowOffsetMapping: shifted row beyond device");
    }
    a.row = static_cast<std::uint32_t>(row);
  }

  std::unique_ptr<IndexMapping> inner_;
  std::uint32_t row_offset_;
  std::uint32_t rows_;
};

}  // namespace tbi::mapping
