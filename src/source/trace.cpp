#include "source/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace tbi::source {

namespace {

/// Sort \p events by wire position and reject repeated positions.
void sort_by_position(std::vector<Corruption>& events) {
  std::sort(events.begin(), events.end(),
            [](const Corruption& a, const Corruption& b) {
              return a.wire_pos < b.wire_pos;
            });
  const auto dup = std::adjacent_find(
      events.begin(), events.end(), [](const Corruption& a, const Corruption& b) {
        return a.wire_pos == b.wire_pos;
      });
  if (dup != events.end()) {
    throw std::invalid_argument("burst trace: two events at wire position " +
                                std::to_string(dup->wire_pos));
  }
}

}  // namespace

std::string format_burst_event(const Corruption& event) {
  return std::to_string(event.wire_pos) + ' ' +
         std::to_string(static_cast<unsigned>(event.flip));
}

bool parse_burst_event(const std::string& line, Corruption& event) {
  std::istringstream ss(line);
  ss >> std::ws;
  if (ss.eof()) return false;          // blank line
  if (ss.peek() == '#') return false;  // comment
  std::uint64_t pos = 0;
  std::uint64_t flip = 0;
  if (!(ss >> pos >> flip)) {
    throw std::invalid_argument("burst trace: malformed event line: " + line);
  }
  if (flip == 0 || flip > 255) {
    throw std::invalid_argument("burst trace: flip out of range 1..255: " + line);
  }
  std::string rest;
  if (ss >> rest) {
    throw std::invalid_argument("burst trace: trailing junk on line: " + line);
  }
  event.wire_pos = pos;
  event.flip = static_cast<std::uint8_t>(flip);
  return true;
}

std::vector<Corruption> read_burst_trace(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kBurstTraceHeader) {
    throw std::invalid_argument(
        std::string("burst trace: missing header '") + kBurstTraceHeader + "'");
  }
  std::vector<Corruption> events;
  Corruption event;
  while (std::getline(in, line)) {
    if (parse_burst_event(line, event)) events.push_back(event);
  }
  sort_by_position(events);
  return events;
}

BurstTraceWriter::BurstTraceWriter(std::ostream& out) : out_(out) {
  out_ << kBurstTraceHeader << '\n';
}

void BurstTraceWriter::comment(const std::string& text) {
  out_ << "# " << text << '\n';
}

void BurstTraceWriter::record(const Corruption& event) {
  out_ << format_burst_event(event) << '\n';
  ++events_written_;
}

TraceReplaySource::TraceReplaySource(std::vector<Corruption> events)
    : events_(std::move(events)) {
  sort_by_position(events_);
}

std::unique_ptr<TraceReplaySource> TraceReplaySource::open(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("burst trace: cannot open " + path);
  }
  try {
    return std::make_unique<TraceReplaySource>(read_burst_trace(in));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string(e.what()) + " (in " + path + ")");
  }
}

std::uint64_t TraceReplaySource::events(std::uint64_t start, std::uint64_t span,
                                        EventSink sink) {
  const std::uint64_t end = start + span;
  auto it = std::lower_bound(events_.begin(), events_.end(), start,
                             [](const Corruption& e, std::uint64_t pos) {
                               return e.wire_pos < pos;
                             });
  std::uint64_t count = 0;
  for (; it != events_.end() && it->wire_pos < end; ++it) {
    sink(*it);
    ++count;
  }
  return count;
}

RecordingSource::RecordingSource(std::unique_ptr<ErrorSource> inner,
                                 std::unique_ptr<std::ostream> out)
    : inner_(std::move(inner)), out_(std::move(out)), writer_(*out_) {
  if (!inner_) {
    throw std::invalid_argument("RecordingSource: null inner source");
  }
}

std::unique_ptr<RecordingSource> RecordingSource::to_file(
    std::unique_ptr<ErrorSource> inner, const std::string& path) {
  auto out = std::make_unique<std::ofstream>(path);
  if (!*out) {
    throw std::runtime_error("burst trace: cannot write " + path);
  }
  return std::make_unique<RecordingSource>(std::move(inner), std::move(out));
}

std::uint64_t RecordingSource::events(std::uint64_t start, std::uint64_t span,
                                      EventSink sink) {
  auto tee = [this, &sink](const Corruption& e) {
    writer_.record(e);
    sink(e);
  };
  const std::uint64_t count = inner_->events(start, span, EventSink(tee));
  out_->flush();
  return count;
}

}  // namespace tbi::source
