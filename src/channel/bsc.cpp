#include "channel/bsc.hpp"

#include <cmath>
#include <stdexcept>

namespace tbi::channel {

SymmetricChannel::SymmetricChannel(double error_probability, unsigned symbol_bits)
    : p_(error_probability), log1m_p_(std::log1p(-p_)), symbol_bits_(symbol_bits) {
  if (!(p_ >= 0.0 && p_ <= 1.0)) {
    throw std::invalid_argument("SymmetricChannel: probability out of range");
  }
  if (symbol_bits_ == 0) {
    throw std::invalid_argument("SymmetricChannel: symbol_bits must be > 0");
  }
}

std::uint64_t SymmetricChannel::advance(std::uint64_t start, std::uint64_t span,
                                        Rng& rng, EventSink sink) {
  // Local copies keep the generator in registers across the opaque sink
  // call (see GilbertElliottChannel::advance).
  Rng r = rng;
  const double log1m_p = log1m_p_;
  const unsigned bits = symbol_bits_;
  // Errors are independent, so the gap before each one is geometric;
  // the first advance() starts the stream at wire position 0.
  std::uint64_t next = drawn_ ? next_error_ : r.geometric_log1m(log1m_p);
  const std::uint64_t end = start + span;
  std::uint64_t corrupted = 0;
  while (next < end) {
    sink({next, corrupt_flip(bits, r)});
    ++corrupted;
    next = gap_end(next + 1, r.geometric_log1m(log1m_p));
  }
  rng = r;
  next_error_ = next;
  drawn_ = true;
  return corrupted;
}

}  // namespace tbi::channel
