/// \file trace.hpp
/// Burst-event trace format: record a channel's corruption events to a
/// file and replay them through the pipeline later.
///
/// The format is line-oriented text, like the DRAM command trace
/// (src/dram/trace.hpp) but over wire symbols instead of DRAM commands:
///
///     # tbi-burst-trace v1
///     # <any further comment lines>
///     <wire_pos> <flip>
///     ...
///
/// One event per line: the absolute wire position (decimal symbol
/// index) and the non-zero XOR flip mask (decimal, 1..255). Events may
/// appear in any order — multi-link recordings interleave streams — and
/// the loader sorts by wire position. A position appears at most once: a
/// symbol is either corrupted or not, and the pipeline counts one error
/// per event.
///
/// Recording and replaying the same configuration reproduces the exact
/// FER and corruption positions of the live run: channels are
/// data-independent, so the (position, flip) event set is the complete
/// channel state as far as the pipeline is concerned (DESIGN.md §6).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "source/source.hpp"

namespace tbi::source {

/// Magic first line of every burst trace file.
inline constexpr const char* kBurstTraceHeader = "# tbi-burst-trace v1";

/// Serialize one event as "<wire_pos> <flip>".
std::string format_burst_event(const Corruption& event);

/// Parse one trace line into \p event. Returns false for comment ("#"
/// prefix) and blank lines; throws std::invalid_argument on malformed
/// input (missing fields, flip outside 1..255, trailing junk).
bool parse_burst_event(const std::string& line, Corruption& event);

/// Read a whole trace from a stream (header line required). Events are
/// returned sorted by wire position; throws std::invalid_argument when
/// two events share a position.
std::vector<Corruption> read_burst_trace(std::istream& in);

/// Streams events out as they are recorded; writes the header up front.
class BurstTraceWriter {
 public:
  explicit BurstTraceWriter(std::ostream& out);

  void comment(const std::string& text);
  void record(const Corruption& event);

  std::uint64_t events_written() const { return events_written_; }

 private:
  std::ostream& out_;
  std::uint64_t events_written_ = 0;
};

/// Replays a recorded event set as an ErrorSource. Stateless between
/// calls, so random access over ranges is free — any (start, span)
/// query is a binary search.
class TraceReplaySource final : public ErrorSource {
 public:
  /// Takes ownership of the events; sorts them by wire position and
  /// throws std::invalid_argument when two share a position.
  explicit TraceReplaySource(std::vector<Corruption> events);

  /// Load from a trace file; throws std::runtime_error if the file is
  /// missing or malformed.
  static std::unique_ptr<TraceReplaySource> open(const std::string& path);

  std::uint64_t events(std::uint64_t start, std::uint64_t span,
                       EventSink sink) override;

  const char* name() const override { return "trace-replay"; }

  std::uint64_t scratch_bytes() const override {
    return events_.capacity() * sizeof(Corruption);
  }

  std::uint64_t total_events() const { return events_.size(); }

 private:
  std::vector<Corruption> events_;
};

/// Tees an inner source's events into a BurstTraceWriter. Every event
/// that reaches the pipeline also reaches the trace, including through
/// corrupt() — the base-class corrupt routes through events(), so
/// nothing bypasses the writer.
class RecordingSource final : public ErrorSource {
 public:
  RecordingSource(std::unique_ptr<ErrorSource> inner,
                  std::unique_ptr<std::ostream> out);

  /// Record to a file; throws std::runtime_error if it cannot be opened.
  static std::unique_ptr<RecordingSource> to_file(
      std::unique_ptr<ErrorSource> inner, const std::string& path);

  std::uint64_t events(std::uint64_t start, std::uint64_t span,
                       EventSink sink) override;

  const char* name() const override { return inner_->name(); }

  std::uint64_t scratch_bytes() const override {
    return inner_->scratch_bytes();
  }

  std::uint64_t events_written() const { return writer_.events_written(); }

 private:
  std::unique_ptr<ErrorSource> inner_;
  std::unique_ptr<std::ostream> out_;
  BurstTraceWriter writer_;
};

}  // namespace tbi::source
