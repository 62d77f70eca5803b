#include "storage/page_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/check.h"
#include "common/crc32c.h"

namespace mdw::storage {

Status PageFile::VerifyPage(std::int64_t page, const std::byte* data) const {
  const std::int64_t idx = page - checksum_first_page_;
  if (idx < 0 || idx >= static_cast<std::int64_t>(checksums_.size())) {
    return Status::Ok();
  }
  const std::uint32_t got =
      Crc32c(data, static_cast<std::size_t>(page_size_));
  if (got != checksums_[static_cast<std::size_t>(idx)]) {
    return Status::Corruption("page " + std::to_string(page) + " of " +
                              path_ + " fails its CRC-32C");
  }
  return Status::Ok();
}

namespace {

/// Opens `path` read-only and returns {fd, size}; aborts on failure.
std::pair<int, std::int64_t> OpenAndSize(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  MDW_CHECK(fd >= 0, "cannot open segment file for reading");
  struct stat st;
  MDW_CHECK(::fstat(fd, &st) == 0, "cannot stat segment file");
  return {fd, static_cast<std::int64_t>(st.st_size)};
}

class PreadPageFile final : public PageFile {
 public:
  PreadPageFile(std::string path, std::int64_t page_size,
                std::int64_t page_count, std::uint32_t file_id, int fd)
      : PageFile(std::move(path), page_size, page_count, file_id), fd_(fd) {}

  ~PreadPageFile() override { ::close(fd_); }

  Status ReadPages(std::int64_t first, std::int64_t count,
                   std::byte* dst) const override {
    MDW_CHECK(first >= 0 && count >= 0 && first + count <= page_count(),
              "page read out of range");
    std::int64_t want = count * page_size();
    std::int64_t off = first * page_size();
    char* out = reinterpret_cast<char*>(dst);
    // Loop over partial reads: pread may legally return fewer bytes than
    // requested (and -1/EINTR on a signal) without anything being wrong.
    // Only a hard error or an early EOF is a failure — and a typed one,
    // so a transient EIO degrades the query instead of the process.
    while (want > 0) {
      const ssize_t got = ::pread(fd_, out, static_cast<std::size_t>(want),
                                  static_cast<off_t>(off));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("pread of " + path() + " failed: " +
                               std::strerror(errno));
      }
      if (got == 0) {
        return Status::IoError("unexpected EOF in " + path() +
                               " (file truncated under the reader?)");
      }
      want -= got;
      off += got;
      out += got;
    }
    return Status::Ok();
  }

 private:
  int fd_;
};

}  // namespace

std::unique_ptr<PageFile> PageFile::Open(const std::string& path,
                                         std::int64_t page_size,
                                         std::uint32_t file_id) {
  MDW_CHECK(page_size >= 1, "page size must be positive");
  auto [fd, size] = OpenAndSize(path);
  MDW_CHECK(size % page_size == 0,
            "segment file length is not a whole number of pages");
  const std::int64_t page_count = size / page_size;
  return std::make_unique<PreadPageFile>(path, page_size, page_count,
                                         file_id, fd);
}

}  // namespace mdw::storage
