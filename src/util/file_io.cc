#include "util/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace fdx {
namespace {

std::string ErrnoText(const char* what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

}  // namespace

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: '" + path + "'");
    }
    return Status::IOError(ErrnoText("cannot open", path));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      errno = saved;
      return Status::IOError(ErrnoText("cannot read", path));
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Result<std::string> ReadFileSlice(const std::string& path, uint64_t offset,
                                  uint64_t length) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: '" + path + "'");
    }
    return Status::IOError(ErrnoText("cannot open", path));
  }
  std::string out;
  out.resize(length);
  size_t got = 0;
  while (got < length) {
    ssize_t n = ::pread(fd, out.data() + got, length - got,
                        static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      errno = saved;
      return Status::IOError(ErrnoText("cannot read", path));
    }
    if (n == 0) {
      ::close(fd);
      return Status::IOError("short read from '" + path + "': wanted " +
                             std::to_string(length) + " bytes at offset " +
                             std::to_string(offset) + ", file ended after " +
                             std::to_string(got));
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  return out;
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  // The temp file must live in the same directory as the target so the
  // final rename is atomic (same filesystem).
  std::string tmp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IOError(ErrnoText("cannot create", tmp));
  size_t off = 0;
  while (off < contents.size()) {
    ssize_t n = ::write(fd, contents.data() + off, contents.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      errno = saved;
      return Status::IOError(ErrnoText("cannot write", tmp));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    errno = saved;
    return Status::IOError(ErrnoText("cannot fsync", tmp));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError(ErrnoText("cannot close", tmp));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    return Status::IOError(ErrnoText("cannot rename into", path));
  }
  return Status::OK();
}

Status EnsureDirectory(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + path +
                           "': " + ec.message());
  }
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(ErrnoText("cannot remove", path));
  }
  return Status::OK();
}

Status RemoveDirectoryRecursive(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  if (ec) {
    return Status::IOError("cannot remove directory '" + path +
                           "': " + ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& path,
                                               DirectoryEntries kind) {
  std::error_code ec;
  std::filesystem::directory_iterator it(path, ec);
  if (ec) {
    return Status::IOError("cannot list directory '" + path +
                           "': " + ec.message());
  }
  std::vector<std::string> names;
  for (const auto& entry : it) {
    std::error_code type_ec;
    const bool wanted = kind == DirectoryEntries::kFiles
                            ? entry.is_regular_file(type_ec)
                            : entry.is_directory(type_ec);
    if (wanted && !type_ec) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

uint64_t CurrentRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long total = 0, resident = 0;
  int matched = std::fscanf(f, "%llu %llu", &total, &resident);
  std::fclose(f);
  if (matched != 2) return 0;
  return static_cast<uint64_t>(resident) *
         static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace fdx
