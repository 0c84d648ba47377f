#ifndef FDX_UTIL_MMAP_FILE_H_
#define FDX_UTIL_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace fdx {

/// Read-only memory-mapped file. The chunk store's read path and the CSV
/// readers map files instead of copying them through read(2): column
/// slices and CSV ranges are consumed straight out of the page cache,
/// and pages are released with `madvise(MADV_DONTNEED)` as soon as they
/// have been decoded so a bounded-memory scan never accumulates mapped
/// residency. Mapped pages are file-backed and clean (the mapping is
/// PROT_READ), which means the kernel can reclaim them at any time —
/// `ResidentBytes` reports how many are currently mapped so RSS-ceiling
/// accounting can subtract them from the polled process figure.
///
/// Movable, not copyable; the destructor unmaps.
class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile();
  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only and advises MADV_SEQUENTIAL (chunk columns
  /// and CSV ranges are read front to back). Empty files map to a
  /// valid zero-length object (data() == nullptr, size() == 0).
  static Result<MmapFile> Open(const std::string& path);

  const char* data() const { return data_; }
  size_t size() const { return size_; }
  bool mapped() const { return data_ != nullptr; }

  /// Tells the kernel the byte range [offset, offset + length) is done
  /// with: its pages are unmapped (clean, file-backed — nothing is lost,
  /// a later touch faults them back in). The range is widened to whole
  /// pages, so a page shared with a neighbouring range is dropped too;
  /// a reader of that range merely refaults it. Safe to call
  /// concurrently with readers of other ranges.
  void AdviseDontNeed(size_t offset, size_t length) const;

  /// Bytes of this mapping currently mapped into the process — its
  /// share of the RSS (page-table present bits from /proc/self/pagemap);
  /// 0 when unmapped or when pagemap cannot be read.
  uint64_t ResidentBytes() const;

 private:
  char* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace fdx

#endif  // FDX_UTIL_MMAP_FILE_H_
