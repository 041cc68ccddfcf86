#include "channel/bsc.hpp"

#include <stdexcept>

namespace tbi::channel {

SymmetricChannel::SymmetricChannel(double error_probability, unsigned symbol_bits)
    : p_(error_probability), symbol_bits_(symbol_bits) {
  if (p_ < 0.0 || p_ > 1.0) {
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
  const double p = p_;
  const unsigned bits = symbol_bits_;
  std::uint64_t corrupted = 0;
  for (std::uint64_t i = 0; i < span; ++i) {
    if (r.bernoulli(p)) {
      sink({start + i, corrupt_flip(bits, r)});
      ++corrupted;
    }
  }
  rng = r;
  return corrupted;
}

}  // namespace tbi::channel
