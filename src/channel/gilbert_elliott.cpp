#include "channel/gilbert_elliott.hpp"

#include <stdexcept>

namespace tbi::channel {

GilbertElliottParams GilbertElliottParams::from_burst_profile(
    double mean_burst_symbols, double bad_fraction, double error_bad,
    unsigned symbol_bits) {
  if (mean_burst_symbols < 1.0 || bad_fraction <= 0.0 || bad_fraction >= 1.0) {
    throw std::invalid_argument("GilbertElliottParams: bad burst profile");
  }
  GilbertElliottParams p;
  p.p_bg = 1.0 / mean_burst_symbols;
  // stationary bad fraction = p_gb / (p_gb + p_bg)
  p.p_gb = p.p_bg * bad_fraction / (1.0 - bad_fraction);
  p.error_good = 0.0;
  p.error_bad = error_bad;
  p.symbol_bits = symbol_bits;
  return p;
}

GilbertElliottChannel::GilbertElliottChannel(GilbertElliottParams params)
    : params_(params) {
  auto check01 = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!check01(params_.p_gb) || !check01(params_.p_bg) ||
      !check01(params_.error_good) || !check01(params_.error_bad)) {
    throw std::invalid_argument("GilbertElliottChannel: probability out of range");
  }
}

double GilbertElliottChannel::stationary_bad() const {
  const double denom = params_.p_gb + params_.p_bg;
  return denom > 0.0 ? params_.p_gb / denom : 0.0;
}

std::uint64_t GilbertElliottChannel::advance(std::uint64_t start,
                                             std::uint64_t span, Rng& rng,
                                             EventSink sink) {
  // The walk runs on local copies of the generator, the state and the
  // parameters: the sink is an opaque call, so anything it could reach
  // would otherwise be stored and reloaded on every symbol.
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

}  // namespace tbi::channel
