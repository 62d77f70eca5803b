#ifndef MDW_STORAGE_PAGE_FILE_H_
#define MDW_STORAGE_PAGE_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace mdw::storage {

/// Read-only page-granular access to one segment file. The file length
/// must be a whole number of pages (enforced at Open). Implementations
/// are safe for concurrent ReadPages calls — positional reads share no
/// cursor — so the BufferPool can fault pages from several threads at
/// once.
///
/// Failure semantics: Open aborts (a store that cannot open its own
/// files has no graceful degradation), but ReadPages returns a Status —
/// read failures after construction are survivable and flow up through
/// the buffer pool as typed errors. Out-of-range reads stay fatal: they
/// are caller bugs, not device faults.
class PageFile {
 public:
  virtual ~PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  /// Opens `path` for positional reads (pread; the kernel page cache
  /// applies); aborts when the file cannot be opened or its size is not
  /// a multiple of `page_size`. `file_id` is the caller-assigned
  /// identity used in buffer-pool cache keys and must be unique among
  /// the files served by one pool.
  static std::unique_ptr<PageFile> Open(const std::string& path,
                                        std::int64_t page_size,
                                        std::uint32_t file_id);

  const std::string& path() const { return path_; }
  std::int64_t page_size() const { return page_size_; }
  std::int64_t page_count() const { return page_count_; }
  std::uint32_t file_id() const { return file_id_; }

  /// Copies pages [first, first + count) into `dst` (count * page_size
  /// bytes). Returns kIoError when the device read fails or the file
  /// ends early; aborts on out-of-range pages (caller bug).
  virtual Status ReadPages(std::int64_t first, std::int64_t count,
                           std::byte* dst) const = 0;

  /// Registers the expected CRC-32C of pages [first_page, first_page +
  /// checksums.size()): the buffer pool verifies these at fault-in time
  /// through VerifyPage. Pages outside the range (the header and the
  /// checksum block itself) have no checksum and always verify ok.
  void AttachChecksums(std::int64_t first_page,
                       std::vector<std::uint32_t> checksums) {
    checksum_first_page_ = first_page;
    checksums_ = std::move(checksums);
  }
  bool has_checksums() const { return !checksums_.empty(); }

  /// Checks `data` (one page_size-byte page image) against the attached
  /// checksum of `page`; kCorruption on mismatch, ok when it matches or
  /// no checksum covers the page.
  Status VerifyPage(std::int64_t page, const std::byte* data) const;

 protected:
  PageFile(std::string path, std::int64_t page_size, std::int64_t page_count,
           std::uint32_t file_id)
      : path_(std::move(path)),
        page_size_(page_size),
        page_count_(page_count),
        file_id_(file_id) {}

 private:
  std::string path_;
  std::int64_t page_size_;
  std::int64_t page_count_;
  std::uint32_t file_id_;
  std::int64_t checksum_first_page_ = 0;
  std::vector<std::uint32_t> checksums_;
};

}  // namespace mdw::storage

#endif  // MDW_STORAGE_PAGE_FILE_H_
