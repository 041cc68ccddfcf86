/// \file per_symbol_channels.hpp
/// Test-only oracles for the gap-sampled channels: the BSC and
/// Gilbert-Elliott walks that draw one Bernoulli per wire symbol (the
/// chain's transition plus the error draw, for Gilbert-Elliott). They
/// define the models the production channels sample: the same
/// distribution of events from different draws, which the distribution
/// tests check over many seeds.
#pragma once

#include "channel/channel.hpp"
#include "channel/gilbert_elliott.hpp"

namespace tbi::channel {

class PerSymbolSymmetricChannel final : public Channel {
 public:
  PerSymbolSymmetricChannel(double error_probability, unsigned symbol_bits)
      : p_(error_probability), symbol_bits_(symbol_bits) {}

  const char* name() const override { return "symmetric-per-symbol"; }

 protected:
  std::uint64_t advance(std::uint64_t start, std::uint64_t span, Rng& rng,
                        EventSink sink) override {
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

 private:
  double p_;
  unsigned symbol_bits_;
};

class PerSymbolGilbertElliottChannel final : public Channel {
 public:
  explicit PerSymbolGilbertElliottChannel(GilbertElliottParams params)
      : params_(params) {}

  const char* name() const override { return "gilbert-elliott-per-symbol"; }

 protected:
  std::uint64_t advance(std::uint64_t start, std::uint64_t span, Rng& rng,
                        EventSink sink) override {
    Rng r = rng;
    bool bad = bad_;
    const GilbertElliottParams p = params_;
    std::uint64_t corrupted = 0;
    for (std::uint64_t i = 0; i < span; ++i) {
      bad = bad ? !r.bernoulli(p.p_bg) : r.bernoulli(p.p_gb);
      const double error_rate = bad ? p.error_bad : p.error_good;
      if (error_rate > 0.0 && r.bernoulli(error_rate)) {
        sink({start + i, corrupt_flip(p.symbol_bits, r)});
        ++corrupted;
      }
    }
    rng = r;
    bad_ = bad;
    return corrupted;
  }

 private:
  GilbertElliottParams params_;
  bool bad_ = false;
};

}  // namespace tbi::channel
