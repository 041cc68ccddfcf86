#include "interleaver/streams.hpp"

#include <algorithm>
#include <stdexcept>

namespace tbi::interleaver {

namespace {

/// Fill \p count requests from \p stream unless it ends first.
template <typename Stream>
std::size_t fill(Stream& stream, dram::Request* out, std::size_t count) {
  std::size_t n = 0;
  while (n < count) {
    const std::size_t got = stream.next_batch(out + n, count - n);
    if (got == 0) break;
    n += got;
  }
  return n;
}

}  // namespace

std::uint64_t burst_triangle_side(std::uint64_t total_symbols, unsigned symbol_bits,
                                  unsigned burst_bytes) {
  std::uint64_t total_bits = 0;
  if (__builtin_mul_overflow(total_symbols, std::uint64_t{symbol_bits}, &total_bits)) {
    throw std::invalid_argument("burst_triangle_side: total_symbols * symbol_bits "
                                "exceeds 2^64 - 1");
  }
  // Rounded up without div_ceil's a + b - 1, which wraps near 2^64.
  const std::uint64_t burst_bits = std::uint64_t{8} * burst_bytes;
  const std::uint64_t bursts =
      total_bits / burst_bits + (total_bits % burst_bits != 0 ? 1 : 0);
  return triangular_side_for(bursts);
}

std::size_t TriangleWalk::next_run(dram::Request* out, std::size_t max) {
  // The walk is at (i_, j_); a row i holds n - i bursts, a column j n - j.
  const std::uint64_t line = along_row_ ? i_ : j_;
  if (line >= side_) return 0;
  const std::uint64_t at = along_row_ ? j_ : i_;
  std::uint64_t count = std::min<std::uint64_t>(std::min(max, kRun), side_ - line - at);
  if (limit_ != 0) count = std::min(count, limit_ - produced_);
  if (count == 0) return 0;

  mapping_.map_run(i_, j_, along_row_, count, run_.data());
  const bool is_write = along_row_;  // rows are written, columns read
  for (std::size_t k = 0; k < count; ++k) {
    out[k].addr = run_[k];
    out[k].is_write = is_write;
  }
  produced_ += count;
  std::uint64_t& step = along_row_ ? j_ : i_;
  std::uint64_t& next_line = along_row_ ? i_ : j_;
  step += count;
  if (step >= side_ - line) {
    step = 0;
    ++next_line;
  }
  return count;
}

std::size_t StreamingPhaseStream::next_batch(dram::Request* out, std::size_t max) {
  if (write_done_) return read_.next_batch(out, max);
  if (read_done_) return write_.next_batch(out, max);
  // Both walks live: alternate 1:1 from whichever's turn it is. A walk
  // that comes up short has ended, and the other fills the rest in order.
  const std::size_t want = std::min(max, writes_.size() + reads_.size());
  const std::size_t want_w = (want + (write_turn_ ? 1 : 0)) / 2;
  const std::size_t want_r = want - want_w;
  const std::size_t nw = fill(write_, writes_.data(), want_w);
  const std::size_t nr = fill(read_, reads_.data(), want_r);
  write_done_ = nw < want_w;
  read_done_ = nr < want_r;
  std::size_t n = 0;
  for (std::size_t w = 0, r = 0; w < nw || r < nr; write_turn_ = !write_turn_) {
    const bool take_write = write_turn_ ? w < nw : r == nr;
    out[n++] = take_write ? writes_[w++] : reads_[r++];
  }
  // Only an ended walk yields nothing here; the other takes over.
  return n > 0 ? n : next_batch(out, max);
}

}  // namespace tbi::interleaver
