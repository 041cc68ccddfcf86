/// \file source.hpp
/// Burst sources: the pipeline-facing abstraction over "where do
/// corruption events come from".
///
/// The FER pipeline historically called Channel::apply directly, which
/// welded it to live channel simulation: no replaying a recorded burst
/// trace, no composing several links into one wire stream. An
/// ErrorSource decouples that — it yields corruption events (wire
/// position + XOR flip) over any requested wire-position range, and the
/// pipeline consumes events without caring whether they came from a
/// channel model, a trace file, or N interleaved links (DESIGN.md §6).
///
/// Events are the channel layer's own type (channel::Corruption through a
/// channel::EventSink): every channel's corruption is data-independent
/// (guaranteed non-zero XOR flips drawn independently of symbol values),
/// so the (position, flip) list a channel emits is the whole of its
/// effect on the stream, and a ChannelSource forwards it unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "channel/channel.hpp"

namespace tbi::source {

using channel::Corruption;
using channel::EventSink;

/// Yields corruption events over wire-position ranges.
///
/// Ranges are normally requested in increasing order (the pipeline walks
/// frames forward); implementations backed by stateful channels support
/// random access by rewinding to a fresh instance and skipping forward,
/// which is deterministic and costs O(events) of the skipped prefix (the
/// channels draw gaps and power samples, not symbols). Events within one
/// call arrive in increasing wire_pos per underlying stream, but a
/// composite source may interleave streams, so consumers must not assume
/// a global order (the pipeline only counts events per code word). Every
/// wire position carries at most one event.
class ErrorSource {
 public:
  virtual ~ErrorSource() = default;

  /// Emit every corruption event in [start, start + span) into \p sink.
  /// Returns the number of events emitted.
  virtual std::uint64_t events(std::uint64_t start, std::uint64_t span,
                               EventSink sink) = 0;

  /// Corrupt \p wire in place as the range [start, start + wire.size()):
  /// the events() stream XORed into the buffer.
  std::uint64_t corrupt(std::uint64_t start, std::span<std::uint8_t> wire);

  /// Convenience for tests and tools: append the range's events to \p out.
  std::uint64_t collect(std::uint64_t start, std::uint64_t span,
                        std::vector<Corruption>& out);

  virtual const char* name() const = 0;

  /// Bytes this source retains between calls (a replayed trace's event
  /// list) — the pipeline folds this into its workspace_peak_bytes.
  virtual std::uint64_t scratch_bytes() const { return 0; }
};

using ChannelFactory = std::function<std::unique_ptr<channel::Channel>()>;

/// Adapts a stateful Channel to the random-access ErrorSource contract.
///
/// Owns the channel instance and its RNG stream. Forward motion is
/// Channel::events (skipping any gap); a request behind the current
/// position rebuilds the channel from the factory and reseeds, then
/// skips forward — deterministic random access at the cost of replaying
/// the prefix draws. That is cheap for every model: a skip costs
/// O(events), one draw per error gap (BSC), good-state sojourn or fade
/// symbol (Gilbert-Elliott), or power sample (LEO); see channel.hpp.
class ChannelSource final : public ErrorSource {
 public:
  ChannelSource(ChannelFactory factory, std::uint64_t seed);

  std::uint64_t events(std::uint64_t start, std::uint64_t span,
                       EventSink sink) override;

  const char* name() const override;

  const channel::Channel& channel() const { return *channel_; }

 private:
  ChannelFactory factory_;
  std::uint64_t seed_;
  std::unique_ptr<channel::Channel> channel_;
  Rng rng_;
};

/// Composes N per-link sources into one interleaved wire stream.
///
/// Global wire position p carries link p % N at that link's local
/// position p / N — symbol round-robin, the way a multi-lane ingestion
/// stage would merge per-fiber streams before the interleaver. Each link
/// keeps its own source (own channel instance, own seed) plus a phase
/// offset into its local stream, so links can model staggered
/// acquisition starts.
class MultiLinkSource final : public ErrorSource {
 public:
  struct Link {
    std::unique_ptr<ErrorSource> source;
    std::uint64_t phase_offset = 0;  ///< added to link-local positions
  };

  explicit MultiLinkSource(std::vector<Link> links);

  std::uint64_t events(std::uint64_t start, std::uint64_t span,
                       EventSink sink) override;

  const char* name() const override { return "multi-link"; }

  std::size_t link_count() const { return links_.size(); }

 private:
  std::vector<Link> links_;
};

}  // namespace tbi::source
