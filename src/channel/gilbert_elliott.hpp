/// \file gilbert_elliott.hpp
/// Gilbert-Elliott two-state Markov burst-error channel.
///
/// State G(ood) and B(ad) with per-symbol transition probabilities; each
/// state corrupts symbols with its own error rate. Expected burst length
/// is 1/p_bg symbols, so the LEO-scale bursts of the paper (milliseconds
/// at >100 Gbit/s, i.e. millions of symbols) are configured directly from
/// the desired mean burst length.
#pragma once

#include "channel/channel.hpp"

namespace tbi::channel {

struct GilbertElliottParams {
  double p_gb = 1e-5;      ///< P(Good -> Bad) per symbol
  double p_bg = 1e-3;      ///< P(Bad -> Good) per symbol; mean burst = 1/p_bg
  double error_good = 0.0; ///< symbol error rate in Good
  double error_bad = 0.5;  ///< symbol error rate in Bad
  unsigned symbol_bits = 3;

  /// Convenience: configure from mean burst length and duty cycle.
  static GilbertElliottParams from_burst_profile(double mean_burst_symbols,
                                                 double bad_fraction,
                                                 double error_bad,
                                                 unsigned symbol_bits);
};

class GilbertElliottChannel final : public Channel {
 public:
  explicit GilbertElliottChannel(GilbertElliottParams params);

  const char* name() const override { return "gilbert-elliott"; }

  const GilbertElliottParams& params() const { return params_; }

  /// Stationary probability of being in the Bad state.
  double stationary_bad() const;

 protected:
  /// Gap-sampled: from a good symbol, the distance to the next symbol
  /// that is bad or a good-state error is one geometric draw (at the
  /// bench's p_gb ~ 1e-5 and error_good = 0, one draw per ~75 k clean
  /// symbols). Fades are walked symbol by symbol, two draws each.
  std::uint64_t advance(std::uint64_t start, std::uint64_t span, Rng& rng,
                        EventSink sink) override;

 private:
  GilbertElliottParams params_;
  /// log1p(-q) with q = P(a good symbol's successor is bad or a good
  /// error) = 1 - (1 - p_gb)(1 - error_good): the sojourn gap constant.
  double log1m_stop_;
  /// P(that stop is the bad state, not a good-state error) = p_gb / q.
  double stop_is_bad_;
  bool bad_ = false;  ///< state of the last walked symbol
  /// In the good state: absolute wire position of the next stop, drawn
  /// by the first advance() and after each stop.
  std::uint64_t next_stop_ = 0;
  bool drawn_ = false;
};

}  // namespace tbi::channel
