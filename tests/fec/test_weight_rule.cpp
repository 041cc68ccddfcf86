/// Oracle for the FER pipeline's counting rule (sim/pipeline.hpp): a code
/// word sent through a data-independent channel decodes back to itself,
/// with one correction per error, iff its error weight is <= t. The
/// pipeline never runs the codec; this test runs the real one on random
/// words, shortened rows included, and random errors of every weight up
/// to 2t + 2.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "fec/reed_solomon.hpp"

namespace tbi::fec {
namespace {

TEST(WeightRule, DecoderRecoversTheWordIffErrorWeightIsAtMostT) {
  constexpr int kCases = 3000;
  std::uint64_t miscorrections = 0;
  for (const auto& [n, k] :
       {std::pair{255u, 239u}, {255u, 223u}, {255u, 191u}, {63u, 47u}, {15u, 7u}}) {
    const ReedSolomon rs(n, k);
    const unsigned t = rs.t();
    Rng rng(1000 + n * 7 + k);
    std::vector<unsigned> positions(n);
    for (int c = 0; c < kCases; ++c) {
      // Row offset i: the pipeline's row i of a row-aligned frame is a
      // word shortened by i (zero prefix [0, i), payload [i, k)); half the
      // cases are full words as in the packed layout.
      const unsigned i = rng.bernoulli(0.5) ? 0 : static_cast<unsigned>(rng.uniform(k));
      std::vector<std::uint8_t> data(k, 0);
      for (unsigned d = i; d < k; ++d) data[d] = static_cast<std::uint8_t>(rng.next_u64());
      const auto sent = rs.encode(data);

      auto received = sent;
      unsigned w = 0;
      if (rng.uniform(3) != 0) {
        // Error of weight 0..2t+2 on distinct positions of [i, n), with
        // non-zero flips.
        w = std::min<unsigned>(static_cast<unsigned>(rng.uniform(2 * t + 3)), n - i);
        std::iota(positions.begin(), positions.end(), 0u);
        for (unsigned e = 0; e < w; ++e) {
          const unsigned pick = i + e + static_cast<unsigned>(rng.uniform(n - i - e));
          std::swap(positions[i + e], positions[pick]);
          received[positions[i + e]] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
        }
      } else {
        // Random errors almost never land near another codeword over
        // GF(2^8), so a third of the cases aim there: a minimum-weight
        // codeword d (one data symbol, any position — inside the zero
        // prefix too), cut to [i, n) and thinned by up to t symbols. The
        // received word is then within t of sent + d.
        std::vector<std::uint8_t> one(k, 0);
        one[rng.uniform(k)] = static_cast<std::uint8_t>(1 + rng.uniform(255));
        auto d = rs.encode(one);
        for (unsigned m = static_cast<unsigned>(rng.uniform(t + 1)); m > 0; --m) {
          d[rng.uniform(n)] = 0;
        }
        for (unsigned j = i; j < n; ++j) {
          received[j] ^= d[j];
          w += d[j] != 0;
        }
      }

      const RsDecodeResult res = rs.decode(received);
      // Whole-word equality also rules out a "correction" inside the
      // shortened word's zero prefix [0, i).
      const bool recovered = res.ok && received == sent;
      ASSERT_EQ(recovered, w <= t)
          << "RS(" << n << "," << k << ") case " << c << " row " << i << " weight " << w;
      if (recovered) {
        ASSERT_EQ(res.corrected_symbols, w)
            << "RS(" << n << "," << k << ") case " << c << " weight " << w;
      }
      miscorrections += res.ok && !recovered;
    }
  }
  // The rule's hard half — past t the decoder may land on another
  // codeword — is exercised, not just decoder failures.
  EXPECT_GT(miscorrections, 0u);
}

}  // namespace
}  // namespace tbi::fec
