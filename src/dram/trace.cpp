#include "dram/trace.hpp"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace tbi::dram {

void TraceRecorder::on_command(const Command& cmd) {
  out_ << format_command(cmd) << '\n';
  ++count_;
}

void TraceRecorder::comment(const std::string& text) { out_ << "# " << text << '\n'; }

std::string format_command(const Command& cmd) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%" PRId64 " %s %u %u %u %" PRId64 " %" PRId64,
                cmd.issue, to_string(cmd.kind), cmd.bank, cmd.row, cmd.column,
                cmd.data_start, cmd.data_end);
  return buf;
}

}  // namespace tbi::dram
