/// End-to-end system test: RS-coded frames through the triangular
/// interleaver and a bursty channel. This exercises the full
/// communication-side stack (fec + interleaver + channel) and verifies the
/// claim that motivates the whole paper: interleaving converts long
/// channel bursts into per-code-word error counts the FEC can correct.
///
/// Framing follows the paper's construction: code words are written
/// row-wise into the triangle, one (shortened) RS(255,223) word per row —
/// row i holds 255-i symbols, realized as an RS word shortened by i
/// virtual zero data symbols. A channel burst of B symbols in the
/// column-wise transmitted stream then touches each row at most
/// ceil(B / column-height) ~ #columns times, which is what keeps every
/// word below the correction radius t = 16.
#include <gtest/gtest.h>

#include <vector>

#include "channel/gilbert_elliott.hpp"
#include "common/rng.hpp"
#include "fec/reed_solomon.hpp"
#include "interleaver/triangular.hpp"

namespace tbi {
namespace {

constexpr std::uint64_t kSide = 255;
constexpr unsigned kParity = 32;

const fec::ReedSolomon& rs() {
  static const fec::ReedSolomon codec(255, 223);
  return codec;
}

/// Encode one row of the triangle: row i carries 255-i transmitted
/// symbols = (223-i) data symbols + 32 parity (shortened RS).
std::vector<std::uint8_t> encode_row(std::uint64_t i,
                                     const std::vector<std::uint8_t>& data) {
  std::vector<std::uint8_t> full(rs().k(), 0);  // i leading virtual zeros
  std::copy(data.begin(), data.end(), full.begin() + static_cast<long>(i));
  auto word = rs().encode(full);
  return {word.begin() + static_cast<long>(i), word.end()};
}

/// Decode one received row; returns true when the row was recovered.
bool decode_row(std::uint64_t i, std::vector<std::uint8_t> row,
                const std::vector<std::uint8_t>& expected_data) {
  std::vector<std::uint8_t> word(i, 0);  // reinsert virtual zeros
  word.insert(word.end(), row.begin(), row.end());
  if (!rs().decode(word).ok) return false;
  return std::equal(expected_data.begin(), expected_data.end(),
                    word.begin() + static_cast<long>(i));
}

struct Frame {
  std::vector<std::vector<std::uint8_t>> row_data;  ///< per-row payload
  std::vector<std::uint8_t> stream;                 ///< packed triangle
};

Frame make_frame(Rng& rng) {
  const interleaver::TriangularInterleaver tri(kSide);
  Frame f;
  f.stream.resize(tri.capacity());
  f.row_data.resize(kSide);
  std::uint64_t pos = 0;
  for (std::uint64_t i = 0; i < kSide; ++i) {
    const std::uint64_t len = tri_row_length(kSide, i);
    if (len <= kParity) {  // tail rows too short for data: fill parity-only
      f.row_data[i] = {};
      for (std::uint64_t j = 0; j < len; ++j) f.stream[pos++] = 0;
      continue;
    }
    std::vector<std::uint8_t> data(len - kParity);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    f.row_data[i] = data;
    const auto coded = encode_row(i, data);
    std::copy(coded.begin(), coded.end(),
              f.stream.begin() + static_cast<long>(pos));
    pos += len;
  }
  return f;
}

unsigned count_failures(const Frame& f, const std::vector<std::uint8_t>& rx) {
  unsigned failures = 0;
  std::uint64_t pos = 0;
  for (std::uint64_t i = 0; i < kSide; ++i) {
    const std::uint64_t len = tri_row_length(kSide, i);
    if (!f.row_data[i].empty()) {
      std::vector<std::uint8_t> row(rx.begin() + static_cast<long>(pos),
                                    rx.begin() + static_cast<long>(pos + len));
      if (!decode_row(i, std::move(row), f.row_data[i])) ++failures;
    }
    pos += len;
  }
  return failures;
}

unsigned run_single_burst(bool use_interleaver, std::uint64_t burst_len,
                          Rng& rng) {
  const interleaver::TriangularInterleaver tri(kSide);
  Frame f = make_frame(rng);
  auto tx = f.stream;
  if (use_interleaver) tri.interleave_into(f.stream, tx);
  const std::uint64_t start = tx.size() / 3;
  for (std::uint64_t k = start; k < start + burst_len && k < tx.size(); ++k) {
    tx[k] ^= 0xA5;
  }
  auto rx = tx;
  if (use_interleaver) tri.deinterleave_into(tx, rx);
  return count_failures(f, rx);
}

TEST(EndToEnd, InterleaverRescuesBurstThatKillsDirectTransmission) {
  Rng rng(42);
  // 1500-symbol burst: direct transmission loses ~7 consecutive rows
  // beyond repair; interleaved it spans ~8 columns -> <= 8 errors per row,
  // well below t = 16.
  const std::uint64_t burst = 1500;
  const unsigned direct = run_single_burst(false, burst, rng);
  const unsigned interleaved = run_single_burst(true, burst, rng);
  EXPECT_GE(direct, 4u);
  EXPECT_EQ(interleaved, 0u)
      << "triangular interleaving must spread the burst below t per word";
}

TEST(EndToEnd, ShortBurstsHarmlessEitherWay) {
  Rng rng(43);
  EXPECT_EQ(run_single_burst(false, 10, rng), 0u);
  EXPECT_EQ(run_single_burst(true, 10, rng), 0u);
}

TEST(EndToEnd, VeryLongBurstOverwhelmsEvenTheInterleaver) {
  // Sanity check of the model, not of the paper: once the burst exceeds
  // t columns' worth of symbols, even perfect interleaving cannot save
  // the frame. (This is why the interleaver must be sized to the channel
  // coherence time.)
  Rng rng(45);
  const unsigned interleaved = run_single_burst(true, 40 * kSide, rng);
  EXPECT_GT(interleaved, 0u);
}

TEST(EndToEnd, GilbertElliottChannelStatisticsWithInterleaver) {
  Rng rng(44);
  const interleaver::TriangularInterleaver tri(kSide);

  auto run_channel = [&](bool interleave) {
    Rng noise(77);  // identical channel noise for both systems
    Frame f = make_frame(rng);
    auto tx = f.stream;
    if (interleave) tri.interleave_into(f.stream, tx);
    auto params =
        channel::GilbertElliottParams::from_burst_profile(300, 0.03, 0.5, 8);
    channel::GilbertElliottChannel ch(params);
    ch.apply_range(ch.position(), tx, noise);
    auto rx = tx;
    if (interleave) tri.deinterleave_into(tx, rx);
    return count_failures(f, rx);
  };

  const unsigned direct_failures = run_channel(false);
  const unsigned interleaved_failures = run_channel(true);
  EXPECT_LT(interleaved_failures, direct_failures)
      << "interleaving must reduce the frame error count on a burst channel";
  EXPECT_EQ(interleaved_failures, 0u);
}

}  // namespace
}  // namespace tbi
