/// \file per_symbol_channels.hpp
/// Test-only oracles for the production channels' samplers: the BSC and
/// Gilbert-Elliott walks that draw one Bernoulli per wire symbol (the
/// chain's transition plus the error draw, for Gilbert-Elliott), and the
/// LEO walk that draws its power samples by Marsaglia's polar method
/// instead of the ziggurat. They define the models the production
/// channels sample: the same distribution of events from different draws,
/// which the distribution tests check over many seeds. FixedEventsChannel
/// injects a chosen error pattern instead.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "channel/channel.hpp"
#include "channel/gilbert_elliott.hpp"
#include "channel/leo.hpp"

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

/// LeoFadingChannel's walk (draw revision 2) with polar-method Gaussians,
/// two per accepted pair, the second kept as a spare for the next sample.
class PolarLeoChannel final : public Channel {
 public:
  explicit PolarLeoChannel(LeoChannelParams params) : params_(params) {
    const LeoFadingChannel model(params);
    rho_ = model.rho();
    threshold_ = model.threshold();
  }

  const char* name() const override { return "leo-fading-polar"; }

 protected:
  std::uint64_t advance(std::uint64_t start, std::uint64_t span, Rng& rng,
                        EventSink sink) override {
    const double sigma = std::sqrt(1.0 - rho_ * rho_);
    auto gaussian = [this, &rng]() {
      if (has_spare_) {
        has_spare_ = false;
        return spare_;
      }
      double u, v, s;
      do {
        u = 2.0 * rng.uniform_double() - 1.0;
        v = 2.0 * rng.uniform_double() - 1.0;
        s = u * u + v * v;
      } while (s >= 1.0 || s == 0.0);
      const double m = std::sqrt(-2.0 * std::log(s) / s);
      spare_ = v * m;
      has_spare_ = true;
      return u * m;
    };
    std::uint64_t corrupted = 0;
    std::uint64_t k = 0;
    while (k < span) {
      if (phase_ == 0) {
        state_ = started_ ? rho_ * state_ + sigma * gaussian() : gaussian();
        started_ = true;
        faded_ = state_ < threshold_;
      }
      const std::uint64_t take = std::min<std::uint64_t>(
          span - k, params_.symbols_per_sample - phase_);
      if (faded_) {
        for (std::uint64_t i = k; i < k + take; ++i) {
          if (rng.bernoulli(params_.fade_depth_error_rate)) {
            sink({start + i, corrupt_flip(params_.symbol_bits, rng)});
            ++corrupted;
          }
        }
      }
      phase_ += static_cast<unsigned>(take);
      if (phase_ == params_.symbols_per_sample) phase_ = 0;
      k += take;
    }
    return corrupted;
  }

 private:
  LeoChannelParams params_;
  double rho_;
  double threshold_;
  double state_ = 0.0;
  bool started_ = false;
  bool faded_ = false;
  unsigned phase_ = 0;
  bool has_spare_ = false;
  double spare_ = 0.0;
};

/// Emits a fixed list of events in the order given, no position twice,
/// and draws nothing.
class FixedEventsChannel final : public Channel {
 public:
  explicit FixedEventsChannel(std::vector<Corruption> events) : events_(std::move(events)) {}

  const char* name() const override { return "fixed-events"; }

 protected:
  std::uint64_t advance(std::uint64_t start, std::uint64_t span, Rng&,
                        EventSink sink) override {
    std::uint64_t emitted = 0;
    for (const Corruption& e : events_) {
      if (e.wire_pos >= start && e.wire_pos - start < span) {
        sink(e);
        ++emitted;
      }
    }
    return emitted;
  }

 private:
  std::vector<Corruption> events_;
};

}  // namespace tbi::channel
