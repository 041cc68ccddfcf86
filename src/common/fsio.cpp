#include "common/fsio.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace tbi {

namespace {

/// write(2) the whole buffer, retrying on EINTR and short writes.
bool write_all_fd(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

bool write_file_atomic(const std::string& path, const std::string& contents) {
  // Temp file in the same directory so the final rename() stays within one
  // filesystem (rename across mounts is a copy, not atomic). The pid keeps
  // concurrent writers of the same target from clobbering each other's
  // scratch file.
  const std::string tmp = path + "." + std::to_string(::getpid()) + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    std::fprintf(stderr, "error: cannot write '%s': %s\n", tmp.c_str(),
                 std::strerror(errno));
    return false;
  }
  bool ok = write_all_fd(fd, contents.data(), contents.size());
  // fsync before rename: otherwise the rename can hit the disk before the
  // data and a power cut leaves a committed-but-empty file.
  ok = ok && ::fsync(fd) == 0;
  ok = ::close(fd) == 0 && ok;
  ok = ok && ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::fprintf(stderr, "error: failed writing '%s': %s\n", path.c_str(),
                 std::strerror(errno));
    ::unlink(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace tbi
