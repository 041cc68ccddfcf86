/// \file fsio.hpp
/// Atomic whole-file writes for the JSON result sink (`Json::write_file`).
#pragma once

#include <string>

namespace tbi {

/// Write \p contents to \p path atomically: write to a temp file in the
/// same directory, flush + fsync, then rename() into place, so a reader
/// (or a crash, or Ctrl-C) never observes a truncated document, only the
/// old file or the complete new one. Returns false (after printing to
/// stderr) when any step fails; the temp file is removed on failure,
/// never left behind.
bool write_file_atomic(const std::string& path, const std::string& contents);

}  // namespace tbi
