#include "channel/channel.hpp"

#include <stdexcept>
#include <string>

namespace tbi::channel {

std::uint64_t Channel::events(std::uint64_t start, std::uint64_t span, Rng& rng,
                              EventSink sink) {
  if (start < position_) {
    throw std::logic_error(
        std::string("Channel: range start ") + std::to_string(start) +
        " is behind position " + std::to_string(position_) +
        " — channels only run forward; rewind with a fresh instance");
  }
  if (start > position_) skip(start - position_, rng);
  position_ += span;
  return advance(start, span, rng, sink);
}

void Channel::skip(std::uint64_t span, Rng& rng) {
  const std::uint64_t start = position_;
  position_ += span;
  advance(start, span, rng, [](const Corruption&) {});
}

std::uint64_t Channel::apply_range(std::uint64_t start,
                                   std::span<std::uint8_t> symbols, Rng& rng) {
  auto xor_in = [symbols, start](const Corruption& e) {
    symbols[e.wire_pos - start] ^= e.flip;
  };
  return events(start, symbols.size(), rng, xor_in);
}

}  // namespace tbi::channel
