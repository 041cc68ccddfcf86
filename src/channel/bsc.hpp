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
  std::uint64_t advance(std::uint64_t start, std::uint64_t span, Rng& rng,
                        EventSink sink) override;

 private:
  double p_;
  unsigned symbol_bits_;
};

}  // namespace tbi::channel
