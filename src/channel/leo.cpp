#include "channel/leo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tbi::channel {

namespace {

/// Inverse standard-normal CDF (Acklam's rational approximation); enough
/// precision to position the fade threshold for a target duty cycle.
double inv_norm_cdf(double p) {
  if (p <= 0.0 || p >= 1.0) throw std::invalid_argument("inv_norm_cdf: p in (0,1)");
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p > 1 - plow) {
    const double q = std::sqrt(-2 * std::log(1 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
}

}  // namespace

LeoFadingChannel::LeoFadingChannel(LeoChannelParams params) : params_(params) {
  if (params_.symbol_rate_hz <= 0 || params_.coherence_time_s <= 0 ||
      params_.symbols_per_sample == 0) {
    throw std::invalid_argument("LeoFadingChannel: bad parameters");
  }
  if (params_.fade_probability <= 0.0 || params_.fade_probability >= 1.0) {
    throw std::invalid_argument("LeoFadingChannel: fade_probability in (0,1)");
  }
  const double samples_per_coherence =
      params_.coherence_time_s * params_.symbol_rate_hz /
      static_cast<double>(params_.symbols_per_sample);
  rho_ = std::exp(-1.0 / samples_per_coherence);
  threshold_ = inv_norm_cdf(params_.fade_probability);
}

std::uint64_t LeoFadingChannel::advance(std::uint64_t start, std::uint64_t span,
                                        Rng& rng, EventSink sink) {
  // The walk runs on local copies of the generator and the AR(1) state
  // (see GilbertElliottChannel::advance): the sink is an opaque call, and
  // the members would otherwise be stored and reloaded around it and
  // around every power sample.
  Rng r = rng;
  double state = state_;
  bool started = started_;
  bool faded = faded_;
  unsigned phase = sample_phase_;
  const double rho = rho_;
  const double sigma = std::sqrt(1.0 - rho * rho);
  const double threshold = threshold_;
  const double error_rate = params_.fade_depth_error_rate;
  const unsigned bits = params_.symbol_bits;
  const unsigned symbols_per_sample = params_.symbols_per_sample;

  std::uint64_t corrupted = 0;
  std::uint64_t k = 0;
  while (k < span) {
    if (phase == 0) {
      // Stationary start: the process is unit-variance in steady state,
      // so the very first sample comes from N(0,1) — not from the
      // zero-variance median, which under-fades the first coherence time
      // of every stream.
      state = started ? rho * state + sigma * r.normal() : r.normal();
      started = true;
      faded = state < threshold;
      // Cross clean windows that end before the span does with nothing
      // but their power samples: the same draws the outer loop would
      // make, one window per pass.
      while (!faded && span - k > symbols_per_sample) {
        k += symbols_per_sample;
        state = rho * state + sigma * r.normal();
        faded = state < threshold;
      }
    }
    const std::uint64_t take =
        std::min(span - k, static_cast<std::uint64_t>(symbols_per_sample - phase));
    if (faded) {
      // The per-symbol draws only exist inside fades, so every clean
      // sample window is crossed for free.
      for (std::uint64_t i = k; i < k + take; ++i) {
        if (r.bernoulli(error_rate)) {
          sink({start + i, corrupt_flip(bits, r)});
          ++corrupted;
        }
      }
    }
    phase += static_cast<unsigned>(take);
    if (phase == symbols_per_sample) phase = 0;
    k += take;
  }
  rng = r;
  state_ = state;
  started_ = started;
  faded_ = faded;
  sample_phase_ = phase;
  return corrupted;
}

}  // namespace tbi::channel
