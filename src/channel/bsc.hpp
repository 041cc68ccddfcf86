/// \file bsc.hpp
/// Memoryless binary/symbol-symmetric channel: each symbol independently
/// corrupted with probability p. Control case for the interleaving
/// experiments (an interleaver cannot help or hurt a memoryless channel).
#pragma once

#include "channel/channel.hpp"

namespace tbi::channel {

class SymmetricChannel final : public Channel {
 public:
  SymmetricChannel(double error_probability, unsigned symbol_bits);

  const char* name() const override { return "symmetric"; }

  double error_probability() const { return p_; }

 protected:
  /// Draws the geometric gap from one error to the next instead of one
  /// Bernoulli per symbol, so a walk (and a skip) costs O(events): about
  /// 1/p symbols per draw.
  std::uint64_t advance(std::uint64_t start, std::uint64_t span, Rng& rng,
                        EventSink sink) override;

 private:
  double p_;
  double log1m_p_;  ///< log1p(-p), the gap sampler's constant
  unsigned symbol_bits_;
  /// Absolute wire position of the next error (Rng::kNever: none), drawn
  /// by the first advance(). Carrying it across calls is what keeps a
  /// split walk identical to one pass.
  std::uint64_t next_error_ = 0;
  bool drawn_ = false;
};

}  // namespace tbi::channel
