#include "channel/gilbert_elliott.hpp"

#include <cmath>
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
  // 1 - q = (1 - p_gb)(1 - error_good), summed in log space: exact for
  // the tiny p_gb the fade profiles produce.
  log1m_stop_ = std::log1p(-params_.p_gb) + std::log1p(-params_.error_good);
  const double q = params_.p_gb + params_.error_good * (1.0 - params_.p_gb);
  stop_is_bad_ = q > 0.0 ? params_.p_gb / q : 0.0;
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
  // would otherwise be stored and reloaded on every event.
  Rng r = rng;
  bool bad = bad_;
  const GilbertElliottParams p = params_;
  const double log1m_stop = log1m_stop_;
  const double stop_is_bad = stop_is_bad_;
  // The chain starts good before wire position 0, where the first
  // advance() starts.
  std::uint64_t next = drawn_ ? next_stop_ : r.geometric_log1m(log1m_stop);
  const std::uint64_t end = start + span;
  std::uint64_t corrupted = 0;
  auto corrupt = [&](std::uint64_t pos) {
    sink({pos, corrupt_flip(p.symbol_bits, r)});
    ++corrupted;
  };
  for (std::uint64_t pos = start; pos < end; ++pos) {
    if (!bad) {
      // Every good symbol before the stop is clean and stays good; the
      // stop is a fade's first symbol with probability p_gb / q, else a
      // good-state error.
      if (next >= end) break;
      pos = next;
      if (p.error_good == 0.0 || r.bernoulli(stop_is_bad)) {
        bad = true;
        if (p.error_bad > 0.0 && r.bernoulli(p.error_bad)) corrupt(pos);
      } else {
        corrupt(pos);
        next = gap_end(pos + 1, r.geometric_log1m(log1m_stop));
      }
    } else if (r.bernoulli(p.p_bg)) {
      // A fade ends on this symbol: it is good, and so is the sojourn
      // that follows up to the next stop.
      bad = false;
      if (p.error_good > 0.0 && r.bernoulli(p.error_good)) corrupt(pos);
      next = gap_end(pos + 1, r.geometric_log1m(log1m_stop));
    } else if (p.error_bad > 0.0 && r.bernoulli(p.error_bad)) {
      corrupt(pos);
    }
  }
  rng = r;
  bad_ = bad;
  next_stop_ = next;
  drawn_ = true;
  return corrupted;
}

}  // namespace tbi::channel
