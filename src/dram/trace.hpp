/// \file trace.hpp
/// Command trace recording (DRAMSys-style .stl-like text format). A
/// TraceRecorder observes a controller run and writes every command as
/// one line; `inspect_phases --trace FILE` uses it.
///
/// Format: one command per line,
///   <issue_ps> <KIND> <bank> <row> <column> <data_start> <data_end>
/// with '#'-prefixed comment lines.
#pragma once

#include <iosfwd>
#include <string>

#include "dram/controller.hpp"
#include "dram/types.hpp"

namespace tbi::dram {

/// Streams every observed command into an std::ostream.
class TraceRecorder final : public CommandObserver {
 public:
  explicit TraceRecorder(std::ostream& out) : out_(out) {}

  void on_command(const Command& cmd) override;

  /// Emit a comment line (phase markers etc.).
  void comment(const std::string& text);

  std::uint64_t commands_written() const { return count_; }

 private:
  std::ostream& out_;
  std::uint64_t count_ = 0;
};

/// Serialize one command in trace format (without newline).
std::string format_command(const Command& cmd);

}  // namespace tbi::dram
