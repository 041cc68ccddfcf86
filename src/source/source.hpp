/// \file source.hpp
/// The FER pipeline's error source: one channel and its seeded generator,
/// walked forward over the wire.
///
/// Every channel's corruption is data-independent (non-zero XOR flips
/// drawn independently of the symbol values), so the (wire position,
/// flip) events a channel emits are its whole effect on the stream
/// (channel.hpp). The frame loop counts those events per code word;
/// corrupt() XORs the same events into a materialized buffer.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "channel/channel.hpp"

namespace tbi::source {

using channel::Corruption;
using channel::EventSink;

/// A channel that owns its RNG stream. Ranges must be requested in
/// non-decreasing order, as the pipeline walks frames: a gap is skipped
/// with the channel's own draws, and a range behind the channel's
/// position throws std::logic_error (Channel::events).
class ErrorSource {
 public:
  ErrorSource(std::unique_ptr<channel::Channel> channel, std::uint64_t seed)
      : channel_(std::move(channel)), rng_(seed) {}

  /// Emit every corruption event in [start, start + span) into \p sink, in
  /// increasing wire position. Returns the number of events emitted.
  std::uint64_t events(std::uint64_t start, std::uint64_t span, EventSink sink) {
    return channel_->events(start, span, rng_, sink);
  }

  /// Corrupt \p wire in place as the range [start, start + wire.size()):
  /// the events() stream XORed into the buffer.
  std::uint64_t corrupt(std::uint64_t start, std::span<std::uint8_t> wire) {
    return channel_->apply_range(start, wire, rng_);
  }

 private:
  std::unique_ptr<channel::Channel> channel_;
  Rng rng_;
};

}  // namespace tbi::source
