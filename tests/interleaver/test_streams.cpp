#include "interleaver/streams.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "dram/standards.hpp"
#include "mapping/factory.hpp"
#include "mapping/offset.hpp"

namespace tbi::interleaver {
namespace {

using dram::find_config;

TEST(Streams, BurstTriangleSideMatchesPaperGeometry) {
  // 12.5M 3-bit symbols on 64 B bursts: 73243 bursts -> side 383.
  EXPECT_EQ(burst_triangle_side(12'500'000, 3, 64), 383u);
  // On 32 B bursts (LPDDR): 146485 bursts -> side 541.
  EXPECT_EQ(burst_triangle_side(12'500'000, 3, 32), 541u);
  EXPECT_EQ(burst_triangle_side(1, 3, 64), 1u);
  EXPECT_EQ(burst_triangle_side(0, 3, 64), 0u);
}

TEST(Streams, BurstTriangleSideRejectsABitCountAbove64Bits) {
  // (2^64 - 1) / 3 symbols of 3 bits is the largest count that fits:
  // 2^64 - 1 bits round up to 2^55 bursts of 512 bits, side 2^28.
  EXPECT_EQ(burst_triangle_side(6'148'914'691'236'517'205ull, 3, 64), 268'435'456u);
  // One symbol more wraps the 64-bit product (to 2 bits, side 1).
  EXPECT_THROW(burst_triangle_side(6'148'914'691'236'517'206ull, 3, 64),
               std::invalid_argument);
  EXPECT_THROW(burst_triangle_side(6'148'914'691'236'517'888ull, 3, 64),
               std::invalid_argument);
  EXPECT_THROW(burst_triangle_side(~std::uint64_t{0}, 2, 32), std::invalid_argument);
}

TEST(Streams, WritePhaseCoversTriangleRowWise) {
  const auto& dev = *find_config("DDR4-3200");
  const std::uint64_t side = 40;
  const auto m = mapping::make_mapping("row-major", dev, side);
  WritePhaseStream s(*m);
  dram::Request r;
  std::uint64_t count = 0;
  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> seen;
  std::uint64_t prev_linear = 0;
  while (s.next(r)) {
    EXPECT_TRUE(r.is_write);
    EXPECT_TRUE(seen.insert({r.addr.bank, r.addr.row, r.addr.column}).second);
    // Row-major mapping + row-wise walk = strictly sequential addresses.
    const auto* rm = dynamic_cast<const mapping::RowMajorMapping*>(m.get());
    ASSERT_NE(rm, nullptr);
    ++count;
    (void)prev_linear;
  }
  EXPECT_EQ(count, triangular_number(side));
}

TEST(Streams, ReadPhaseCoversSameAddressesColumnWise) {
  const auto& dev = *find_config("DDR4-3200");
  const std::uint64_t side = 40;
  const auto m = mapping::make_mapping("optimized", dev, side);

  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> w, rd;
  {
    WritePhaseStream s(*m);
    dram::Request r;
    while (s.next(r)) w.insert({r.addr.bank, r.addr.row, r.addr.column});
  }
  {
    ReadPhaseStream s(*m);
    dram::Request r;
    while (s.next(r)) {
      EXPECT_FALSE(r.is_write);
      rd.insert({r.addr.bank, r.addr.row, r.addr.column});
    }
  }
  EXPECT_EQ(w, rd) << "both phases must touch exactly the same DRAM bursts";
  EXPECT_EQ(w.size(), triangular_number(side));
}

TEST(Streams, ReadPhaseOrderIsColumnMajor) {
  const auto& dev = *find_config("DDR4-3200");
  const std::uint64_t side = 10;
  const auto m = mapping::make_mapping("row-major", dev, side);
  const auto* rm = static_cast<const mapping::RowMajorMapping*>(m.get());

  ReadPhaseStream s(*m);
  dram::Request r;
  std::vector<std::uint64_t> linear;
  std::uint64_t i = 0, j = 0;
  while (s.next(r)) {
    linear.push_back(rm->linear_index(i, j));
    if (++i >= tri_col_length(side, j)) {
      i = 0;
      ++j;
    }
  }
  ASSERT_EQ(linear.size(), triangular_number(side));
  // First column: offsets 0, side, side+(side-1), ...
  EXPECT_EQ(linear[0], 0u);
  EXPECT_EQ(linear[1], 10u);
  EXPECT_EQ(linear[2], 19u);
}

TEST(Streams, MaxBurstsTruncates) {
  const auto& dev = *find_config("DDR3-800");
  const auto m = mapping::make_mapping("optimized", dev, 100);
  WritePhaseStream ws(*m, 17);
  ReadPhaseStream rs(*m, 23);
  dram::Request r;
  std::uint64_t wc = 0, rc = 0;
  while (ws.next(r)) ++wc;
  while (rs.next(r)) ++rc;
  EXPECT_EQ(wc, 17u);
  EXPECT_EQ(rc, 23u);
}

/// The three phase streams over one paper geometry; the streaming one
/// reads from a disjoint row region.
struct PhaseStreams {
  std::unique_ptr<mapping::IndexMapping> write_map;
  std::unique_ptr<mapping::IndexMapping> read_map;

  PhaseStreams(const dram::DeviceConfig& dev, const std::string& spec, std::uint64_t side)
      : write_map(mapping::make_mapping(spec, dev, side)),
        read_map(std::make_unique<mapping::RowOffsetMapping>(
            mapping::make_mapping(spec, dev, side), dev.rows_per_bank / 2,
            dev.rows_per_bank)) {}

  /// Stream \p kind (0 write, 1 read, 2 streaming), truncated to max_bursts.
  std::unique_ptr<dram::RequestStream> make(int kind, std::uint64_t max_bursts) const {
    if (kind == 0) return std::make_unique<WritePhaseStream>(*write_map, max_bursts);
    if (kind == 1) return std::make_unique<ReadPhaseStream>(*write_map, max_bursts);
    return std::make_unique<StreamingPhaseStream>(*write_map, *read_map, max_bursts);
  }
};

bool same_request(const dram::Request& a, const dram::Request& b) {
  return a.addr == b.addr && a.is_write == b.is_write;
}

std::vector<dram::Request> drain_next(dram::RequestStream& s) {
  std::vector<dram::Request> out;
  dram::Request r;
  while (s.next(r)) out.push_back(r);
  return out;
}

TEST(Streams, NextBatchReproducesNextAtEveryRunSize) {
  const auto& dev = *find_config("DDR4-3200");
  for (const std::string spec : {"row-major", "optimized"}) {
    const PhaseStreams streams(dev, spec, 150);
    for (int kind = 0; kind < 3; ++kind) {
      for (const std::uint64_t max_bursts : {0u, 1000u, 2777u}) {
        const auto reference = drain_next(*streams.make(kind, max_bursts));
        const std::uint64_t walk = max_bursts != 0 ? max_bursts : triangular_number(150);
        ASSERT_EQ(reference.size(), (kind == 2 ? 2 : 1) * walk);
        for (const std::size_t run : {1u, 3u, 64u, 256u}) {
          const auto s = streams.make(kind, max_bursts);
          std::vector<dram::Request> buf(run);
          std::vector<dram::Request> got;
          for (std::size_t n; (n = s->next_batch(buf.data(), run)) != 0;) {
            ASSERT_LE(n, run);
            got.insert(got.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
          }
          EXPECT_EQ(s->next_batch(buf.data(), run), 0u) << "an ended stream stays ended";
          ASSERT_EQ(got.size(), reference.size()) << spec << " kind " << kind << " run " << run;
          for (std::size_t k = 0; k < got.size(); ++k) {
            ASSERT_TRUE(same_request(got[k], reference[k]))
                << spec << " kind " << kind << " run " << run << " request " << k;
          }
        }
      }
    }
  }
}

TEST(Streams, NextAndNextBatchShareOneWalk) {
  // Alternating next() and next_batch() on one stream continues a single
  // walk: the merged sequence is the plain next() sequence.
  const auto& dev = *find_config("LPDDR4-4266");
  const PhaseStreams streams(dev, "optimized", 120);
  for (int kind = 0; kind < 3; ++kind) {
    const auto reference = drain_next(*streams.make(kind, 0));
    const auto s = streams.make(kind, 0);
    std::vector<dram::Request> got;
    std::vector<dram::Request> buf(7);
    for (bool single = true;; single = !single) {
      if (single) {
        dram::Request r;
        if (!s->next(r)) break;
        got.push_back(r);
      } else {
        const std::size_t n = s->next_batch(buf.data(), buf.size());
        if (n == 0) break;
        got.insert(got.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
      }
    }
    ASSERT_EQ(got.size(), reference.size()) << "kind " << kind;
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_TRUE(same_request(got[k], reference[k])) << "kind " << kind << " request " << k;
    }
  }
}

}  // namespace
}  // namespace tbi::interleaver
