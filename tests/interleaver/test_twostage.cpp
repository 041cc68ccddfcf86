#include "interleaver/twostage.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace tbi::interleaver {
namespace {

TEST(TwoStage, CapacityAccounting) {
  const TwoStageInterleaver t(8, 4);  // side 8 bursts, 4 symbols each
  EXPECT_EQ(t.capacity_bursts(), 36u);
  EXPECT_EQ(t.capacity_symbols(), 144u);
  EXPECT_EQ(t.symbols_per_burst(), 4u);
}

TEST(TwoStage, PermuteIsBijective) {
  const TwoStageInterleaver t(8, 4);
  std::set<std::uint64_t> out;
  for (std::uint64_t k = 0; k < t.capacity_symbols(); ++k) {
    const std::uint64_t p = t.permute(k);
    EXPECT_LT(p, t.capacity_symbols());
    EXPECT_TRUE(out.insert(p).second);
  }
}

TEST(TwoStage, RoundTrip) {
  const TwoStageInterleaver t(12, 8);
  std::vector<std::uint8_t> data(t.capacity_symbols());
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<std::uint8_t>(k * 131 + 7);
  }
  EXPECT_EQ(t.deinterleave(t.interleave(data)), data);
}

TEST(TwoStage, BurstsContainDistinctCodeWordChunks) {
  // Paper §II: the SRAM stage must ensure the symbols inside one DRAM
  // burst belong to different code words. Check every full super-block
  // burst of the *intermediate* stream through the end-to-end map: the
  // spb symbols that land in one output burst must come from spb distinct
  // input chunks.
  const std::uint64_t side = 8;  // capacity 36 bursts
  const std::uint64_t spb = 4;
  const TwoStageInterleaver t(side, spb);
  const std::uint64_t full_bursts = (t.capacity_bursts() / spb) * spb;

  // Group output symbols by output burst.
  std::vector<std::set<std::uint64_t>> chunks_in_burst(t.capacity_bursts());
  for (std::uint64_t k = 0; k < t.capacity_symbols(); ++k) {
    const std::uint64_t out = t.permute(k);
    const std::uint64_t out_burst = out / spb;
    // Which stage-2 burst fed this output burst? Stage 2 permutes whole
    // bursts, so the originating intermediate burst is k's super-block
    // slot; what matters for the property is the input *chunk*.
    if ((k / (spb * spb)) < full_bursts / spb) {
      chunks_in_burst[out_burst].insert(k / spb);
    }
  }
  for (std::uint64_t b = 0; b < t.capacity_bursts(); ++b) {
    if (chunks_in_burst[b].size() < spb) continue;  // tail region
    EXPECT_EQ(chunks_in_burst[b].size(), spb)
        << "burst " << b << " mixes symbols of the same chunk";
  }
}

TEST(TwoStage, SuperBlocksFillCompleteOutputBursts) {
  // Stage 2 permutes whole bursts: the spb*spb symbols of one super-block
  // must land in exactly spb complete output bursts (spb symbols each).
  const std::uint64_t spb = 4;
  const TwoStageInterleaver t(6, spb);  // 21 bursts -> 5 full super-blocks
  const std::uint64_t full_super_blocks = t.capacity_bursts() / spb;
  for (std::uint64_t sb = 0; sb < full_super_blocks; ++sb) {
    std::map<std::uint64_t, unsigned> hits;  // output burst -> count
    for (std::uint64_t k0 = 0; k0 < spb * spb; ++k0) {
      ++hits[t.permute(sb * spb * spb + k0) / spb];
    }
    EXPECT_EQ(hits.size(), spb) << "super-block " << sb;
    for (const auto& [burst, n] : hits) EXPECT_EQ(n, spb) << "burst " << burst;
  }
}

TEST(TwoStage, RejectsBadInput) {
  EXPECT_THROW(TwoStageInterleaver(8, 0), std::invalid_argument);
  const TwoStageInterleaver t(8, 4);
  EXPECT_THROW(t.permute(t.capacity_symbols()), std::out_of_range);
  EXPECT_THROW(t.interleave(std::vector<std::uint8_t>(7)), std::invalid_argument);
}

TEST(TwoStage, InverseUndoesPermute) {
  const TwoStageInterleaver t(12, 8);
  for (std::uint64_t k = 0; k < t.capacity_symbols(); ++k) {
    EXPECT_EQ(t.inverse(t.permute(k)), k);
    EXPECT_EQ(t.permute(t.inverse(k)), k);
  }
  EXPECT_THROW(t.inverse(t.capacity_symbols()), std::out_of_range);
}

TEST(TwoStage, RandomizedRoundTripOnSampledSides) {
  // Property check over sampled geometries, including sides well past the
  // RS-255 triangle: the interleaver stays a bijection and the inverse
  // recovers the input exactly.
  Rng rng(0xA11CE);
  for (int iter = 0; iter < 8; ++iter) {
    const std::uint64_t side = 20 + rng.uniform(130);
    const std::uint64_t spb = 2 + rng.uniform(14);
    const TwoStageInterleaver t(side, spb);
    SCOPED_TRACE("side=" + std::to_string(side) + " spb=" + std::to_string(spb));

    std::vector<std::uint8_t> data(t.capacity_symbols());
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(t.deinterleave(t.interleave(data)), data);

    // Sparse inverse spot-check (the full scan runs in InverseUndoesPermute).
    for (int s = 0; s < 64; ++s) {
      const std::uint64_t k = rng.uniform(t.capacity_symbols());
      EXPECT_EQ(t.inverse(t.permute(k)), k);
    }
  }
}

TEST(TwoStage, RandomizedPermuteMatchesMaterializedComposition) {
  // permute() must agree with literally composing the two stages: the
  // spb x spb SRAM transpose applied per full super-block, then the
  // triangular permutation of whole bursts. Both component interleavers
  // are independently tested, so this pins the composition order and the
  // partial-tail pass-through. spb is drawn from 2..13; spb 1 (no stage 1)
  // and the paper's 170 three-bit symbols per 512-bit burst are fixed
  // extra geometries.
  Rng rng(0xC0FFEE);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> geometries = {{40, 1}, {60, 170}};
  for (int iter = 0; iter < 6; ++iter) {
    const std::uint64_t side = 16 + rng.uniform(100);
    geometries.push_back({side, 2 + rng.uniform(12)});
  }
  for (const auto& [side, spb] : geometries) {
    const TwoStageInterleaver t(side, spb);
    const BlockInterleaver stage1(spb, spb);
    const TriangularInterleaver stage2(side);
    SCOPED_TRACE("side=" + std::to_string(side) + " spb=" + std::to_string(spb));

    const std::uint64_t sb_symbols = spb * spb;
    const std::uint64_t full_super_blocks = t.capacity_bursts() / spb;
    for (std::uint64_t k = 0; k < t.capacity_symbols(); ++k) {
      std::uint64_t m = k;
      if (k / sb_symbols < full_super_blocks) {
        m = (k / sb_symbols) * sb_symbols + stage1.permute(k % sb_symbols);
      }
      const std::uint64_t expected = stage2.permute(m / spb) * spb + m % spb;
      ASSERT_EQ(t.permute(k), expected) << "k=" << k;
    }
  }
}

TEST(TwoStage, RandomizedBurstsHoldDistinctChunks) {
  // Paper §II on sampled geometries: inside the full-super-block region,
  // every output burst carries exactly spb symbols from spb *distinct*
  // code-word chunks, so a fully faded DRAM burst costs each chunk at
  // most one symbol.
  Rng rng(0xB0B);
  for (int iter = 0; iter < 6; ++iter) {
    const std::uint64_t side = 16 + rng.uniform(80);
    const std::uint64_t spb = 2 + rng.uniform(10);
    const TwoStageInterleaver t(side, spb);
    SCOPED_TRACE("side=" + std::to_string(side) + " spb=" + std::to_string(spb));

    const std::uint64_t sb_symbols = spb * spb;
    const std::uint64_t full_super_blocks = t.capacity_bursts() / spb;
    std::map<std::uint64_t, std::set<std::uint64_t>> chunks_in_burst;
    for (std::uint64_t k = 0; k < full_super_blocks * sb_symbols; ++k) {
      chunks_in_burst[t.permute(k) / spb].insert(k / spb);
    }
    for (const auto& [burst, chunks] : chunks_in_burst) {
      EXPECT_EQ(chunks.size(), spb) << "burst " << burst;
    }
  }
}

TEST(TwoStage, InverseAtPaperScaleAndBeyond) {
  // The streaming pipeline relies on inverse() staying O(1) and exact at
  // sides far past the materializable range (paper 12.5 M-burst stage-2
  // triangles with >2G symbols).
  const TwoStageInterleaver t(5000, 170);
  EXPECT_EQ(t.capacity_bursts(), 12'502'500u);
  EXPECT_EQ(t.capacity_symbols(), 12'502'500ull * 170ull);
  Rng rng(7);
  for (int s = 0; s < 4096; ++s) {
    const std::uint64_t k = rng.uniform(t.capacity_symbols());
    ASSERT_EQ(t.inverse(t.permute(k)), k) << "k=" << k;
    ASSERT_EQ(t.permute(t.inverse(k)), k) << "k=" << k;
  }
}

TEST(TwoStage, PaperScaleGeometry) {
  // 512-bit bursts of 3-bit symbols: 170 symbols per burst (paper §II).
  const TwoStageInterleaver t(383, 170);
  EXPECT_EQ(t.capacity_bursts(), 73536u);
  EXPECT_GT(t.capacity_symbols(), 12'500'000u);
  // Spot-check the permutation at scale.
  std::set<std::uint64_t> sample;
  for (std::uint64_t k = 0; k < t.capacity_symbols(); k += 999983) {
    EXPECT_TRUE(sample.insert(t.permute(k)).second);
  }
}

}  // namespace
}  // namespace tbi::interleaver
