/// \file fsio.hpp
/// Crash-safe file IO primitives shared by the JSON result sink and the
/// sweep checkpoint manifest.
///
/// Two durability patterns:
///
///  * `write_file_atomic`: whole-document replacement via a temp file in
///    the target's directory plus rename(2) — a reader (or a crash) never
///    observes a truncated document, only the old file or the complete
///    new one.
///  * `AppendLog`: an append-only journal where every record is a single
///    O_APPEND write followed by fdatasync, so a crash can tear at most
///    the final line. The manifest loader treats a torn tail as "not yet
///    checkpointed" and recomputes from there.
#pragma once

#include <string>

namespace tbi {

/// Write \p contents to \p path atomically: write to a temp file in the
/// same directory, flush + fsync, then rename() into place. Returns false
/// (after printing to stderr) when any step fails; the temp file is
/// removed on failure, never left behind.
bool write_file_atomic(const std::string& path, const std::string& contents);

/// Append-only log with per-append durability.
class AppendLog {
 public:
  AppendLog() = default;
  ~AppendLog();
  AppendLog(const AppendLog&) = delete;
  AppendLog& operator=(const AppendLog&) = delete;

  /// Open \p path for appending, creating it if missing; \p truncate
  /// discards existing contents first. Returns false on failure. The
  /// descriptor is opened close-on-exec so spawned processes do not
  /// inherit it.
  bool open(const std::string& path, bool truncate = false);
  bool is_open() const { return fd_ >= 0; }

  /// Append \p line plus '\n' in one write(2) and fdatasync it. Returns
  /// false on any short write or sync failure.
  bool append_line(const std::string& line);

  void close();

 private:
  int fd_ = -1;
};

}  // namespace tbi
