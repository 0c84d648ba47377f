#include "util/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace fdx {
namespace {

size_t PageSize() {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

Result<MmapFile> MmapFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: '" + path + "'");
    }
    return Status::IOError("cannot open '" + path +
                           "': " + std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    int saved = errno;
    ::close(fd);
    return Status::IOError("cannot stat '" + path +
                           "': " + std::strerror(saved));
  }
  MmapFile file;
  file.size_ = static_cast<size_t>(st.st_size);
  if (file.size_ == 0) {
    ::close(fd);
    return file;
  }
  void* mapped =
      ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference to the file; the fd is done.
  int saved = errno;
  ::close(fd);
  if (mapped == MAP_FAILED) {
    file.size_ = 0;
    return Status::IOError("cannot mmap '" + path +
                           "': " + std::strerror(saved));
  }
  file.data_ = static_cast<char*>(mapped);
  (void)::madvise(file.data_, file.size_, MADV_SEQUENTIAL);
  return file;
}

void MmapFile::AdviseDontNeed(size_t offset, size_t length) const {
  if (data_ == nullptr || length == 0 || offset >= size_) return;
  const size_t page = PageSize();
  // Round outward: a page that straddles the range edge is dropped too.
  // That never loses bytes — the mapping is read-only and private, so a
  // later touch of the neighbouring range faults the page back in from
  // the file — whereas keeping edge pages leaks residency on every
  // slice whose edges are not page-aligned.
  const size_t lo = offset / page * page;
  const size_t hi = std::min(size_, offset + length);
  (void)::madvise(data_ + lo, hi - lo, MADV_DONTNEED);
}

uint64_t MmapFile::ResidentBytes() const {
  if (data_ == nullptr) return 0;
  // /proc/self/pagemap holds one u64 per virtual page; bit 63 is set
  // while the page is mapped in RAM. mincore would not do: it reports
  // page-cache residency, which MADV_DONTNEED leaves untouched.
  static const int pagemap =
      ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  if (pagemap < 0) return 0;
  const size_t page = PageSize();
  const size_t pages = (size_ + page - 1) / page;
  std::vector<uint64_t> entries(pages);
  const size_t bytes = pages * sizeof(uint64_t);
  const off_t at = static_cast<off_t>(
      reinterpret_cast<uintptr_t>(data_) / page * sizeof(uint64_t));
  if (::pread(pagemap, entries.data(), bytes, at) !=
      static_cast<ssize_t>(bytes)) {
    return 0;
  }
  uint64_t resident = 0;
  for (uint64_t entry : entries) resident += entry >> 63;
  return resident * page;
}

}  // namespace fdx
