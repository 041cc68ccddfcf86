#include "source/source.hpp"

#include <stdexcept>

namespace tbi::source {

std::uint64_t ErrorSource::corrupt(std::uint64_t start,
                                   std::span<std::uint8_t> wire) {
  auto apply = [start, wire](const Corruption& e) {
    wire[e.wire_pos - start] ^= e.flip;
  };
  return events(start, wire.size(), EventSink(apply));
}

std::uint64_t ErrorSource::collect(std::uint64_t start, std::uint64_t span,
                                   std::vector<Corruption>& out) {
  auto append = [&out](const Corruption& e) { out.push_back(e); };
  return events(start, span, EventSink(append));
}

ChannelSource::ChannelSource(ChannelFactory factory, std::uint64_t seed)
    : factory_(std::move(factory)), seed_(seed), rng_(seed) {
  if (!factory_) {
    throw std::invalid_argument("ChannelSource: null channel factory");
  }
  channel_ = factory_();
  if (!channel_) {
    throw std::invalid_argument("ChannelSource: factory produced no channel");
  }
}

std::uint64_t ChannelSource::events(std::uint64_t start, std::uint64_t span,
                                    EventSink sink) {
  if (start < channel_->position()) {
    channel_ = factory_();
    rng_.reseed(seed_);
  }
  return channel_->events(start, span, rng_, sink);
}

const char* ChannelSource::name() const { return channel_->name(); }

MultiLinkSource::MultiLinkSource(std::vector<Link> links)
    : links_(std::move(links)) {
  if (links_.empty()) {
    throw std::invalid_argument("MultiLinkSource: need at least one link");
  }
  for (const Link& link : links_) {
    if (!link.source) {
      throw std::invalid_argument("MultiLinkSource: null link source");
    }
  }
}

std::uint64_t MultiLinkSource::events(std::uint64_t start, std::uint64_t span,
                                      EventSink sink) {
  const std::uint64_t n = links_.size();
  const std::uint64_t end = start + span;
  std::uint64_t count = 0;
  for (std::uint64_t l = 0; l < n; ++l) {
    // Link l owns global positions p with p % n == l, at local position
    // p / n. Count of link-l positions below X is ceil((X - l) / n).
    const std::uint64_t lo = start > l ? (start - l + n - 1) / n : 0;
    const std::uint64_t hi = end > l ? (end - l + n - 1) / n : 0;
    if (hi <= lo) continue;
    const std::uint64_t off = links_[l].phase_offset;
    auto remap = [&sink, off, n, l](const Corruption& e) {
      sink({(e.wire_pos - off) * n + l, e.flip});
    };
    count += links_[l].source->events(lo + off, hi - lo, EventSink(remap));
  }
  return count;
}

}  // namespace tbi::source
