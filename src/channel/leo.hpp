/// \file leo.hpp
/// Correlated-fading optical LEO downlink model.
///
/// Free-space optical links from LEO satellites fade slowly relative to
/// the symbol rate: the channel coherence time exceeds 2 ms (paper §I)
/// while a >100 Gbit/s link moves tens of millions of symbols in that
/// window. This model evolves a log-normal-ish received-power process as
/// a first-order autoregressive (AR(1)) sequence sampled once per
/// `symbols_per_sample` symbols and erases/corrupts symbols whenever the
/// power drops below threshold — producing the long, smooth error bursts
/// the triangular interleaver exists to break up.
#pragma once

#include "channel/channel.hpp"

namespace tbi::channel {

struct LeoChannelParams {
  double symbol_rate_hz = 50e9;      ///< symbols per second on the link
  double coherence_time_s = 2e-3;    ///< AR(1) correlation time constant
  double fade_probability = 0.05;    ///< stationary fraction of faded time
  double fade_depth_error_rate = 0.5;///< symbol error rate while faded
  unsigned symbol_bits = 3;
  unsigned symbols_per_sample = 4096;///< power-process sampling stride
};

class LeoFadingChannel final : public Channel {
 public:
  explicit LeoFadingChannel(LeoChannelParams params);

  const char* name() const override { return "leo-fading"; }

  const LeoChannelParams& params() const { return params_; }

  /// AR(1) coefficient per sample, derived from coherence time.
  double rho() const { return rho_; }
  /// Fade threshold on the unit-variance Gaussian power proxy.
  double threshold() const { return threshold_; }

 protected:
  /// An un-faded power sample consumes no per-symbol draws at all, so
  /// crossing a clean span costs O(1) per symbols_per_sample window —
  /// only faded stretches (the configured few percent) are walked symbol
  /// by symbol.
  std::uint64_t advance(std::uint64_t start, std::uint64_t span, Rng& rng,
                        EventSink sink) override;

 private:
  LeoChannelParams params_;
  double rho_;
  double threshold_;
  double state_ = 0.0;
  /// False until the first power sample. The AR(1) recurrence is
  /// variance-preserving only from a stationary start, so the first
  /// sample is drawn from N(0,1) directly; seeding state_ = 0 (the
  /// median, with zero variance) would bias short streams fade-free for
  /// the first ~coherence time.
  bool started_ = false;
  bool faded_ = false;
  /// Symbols already consumed of the current power sample. Carrying the
  /// phase across advance() calls makes the fading process continuous in
  /// symbol time, so splitting a stream into chunks of any size yields
  /// the identical corruption pattern (the streaming pipeline relies on
  /// this).
  unsigned sample_phase_ = 0;
};

}  // namespace tbi::channel
