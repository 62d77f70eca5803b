#ifndef MDW_STORAGE_BUFFER_POOL_H_
#define MDW_STORAGE_BUFFER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/cancellation.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "storage/page_file.h"

namespace mdw::storage {

/// How the buffer pool retries a failed page load before giving up and
/// surfacing the error. Retries cover both read failures (kIoError) and
/// checksum mismatches (kCorruption) — a bit flipped in flight re-reads
/// clean; one flipped at rest keeps failing and the error propagates.
struct StorageRetryPolicy {
  /// Total read attempts per page load (1 = fail on the first error).
  int max_attempts = 1;
  /// Sleep before the first retry, microseconds; each further retry
  /// doubles it, capped at 10 ms. 0 = retry immediately.
  std::int64_t backoff_us = 0;
};

/// I/O attributed to one reader — a Pin or Prefetch call, or a scan
/// chunk's cursors. `pages_read` counts pages faulted from disk (demand
/// misses plus prefetched pages kept), `buffer_hits` pins served from
/// cache (prefetched pages pin as hits), `bytes_read` the faulted pages
/// in bytes. The failure counters: `io_errors` = read attempts that
/// failed, `io_retries` = extra read attempts the retry policy issued,
/// `checksum_failures` = page images that failed CRC verification.
/// Summed over a query's readers, these match the pool's own counter
/// deltas.
struct IoCounters {
  std::int64_t pages_read = 0;
  std::int64_t buffer_hits = 0;
  std::int64_t bytes_read = 0;
  std::int64_t io_errors = 0;
  std::int64_t io_retries = 0;
  std::int64_t checksum_failures = 0;

  void Merge(const IoCounters& o) {
    pages_read += o.pages_read;
    buffer_hits += o.buffer_hits;
    bytes_read += o.bytes_read;
    io_errors += o.io_errors;
    io_retries += o.io_retries;
    checksum_failures += o.checksum_failures;
  }

  friend bool operator==(const IoCounters& a, const IoCounters& b) = default;
};

/// Counters a BufferPool accumulates over its lifetime (until Reset).
/// `pages_read` counts pages actually faulted from the backing files —
/// demand misses plus prefetched pages; `bytes_read` is the same in
/// bytes. The failure counters: `io_errors` = read attempts that failed,
/// `checksum_failures` = page images that failed CRC verification,
/// `io_retries` = extra read attempts the retry policy issued (counted
/// whether or not they succeeded).
struct PoolStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t evictions = 0;
  std::int64_t prefetched = 0;
  std::int64_t pages_read = 0;
  std::int64_t bytes_read = 0;
  std::int64_t io_errors = 0;
  std::int64_t io_retries = 0;
  std::int64_t checksum_failures = 0;
};

/// A page-granular buffer pool over one or more PageFiles: a fixed arena
/// of `capacity_pages` frames managed by the shared mdw::LruCache
/// eviction core (pinned or in-flight frames are never victims). Thread
/// safe; page I/O happens outside the pool lock, with concurrent misses
/// on the same page coalesced (the waiters count hits).
///
/// Failure path: a load that still fails after the retry policy leaves
/// NOTHING cached — the frame is marked failed, every waiter observes
/// the error, and the last pin out erases the frame and recycles its
/// slot — so a poisoned page can never be served from cache and a retry
/// of the same page starts from a clean slate.
class BufferPool {
 public:
  /// All registered files must share this page size. A capacity below
  /// 1 makes a pool without frames: every Pin fails kInvalidArgument and
  /// Prefetch reads nothing.
  BufferPool(std::int64_t capacity_pages, std::int64_t page_size,
             StorageRetryPolicy retry = {});
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  class PageRef;

  /// Returns a pinned reference to `page` of `file`, faulting it in on a
  /// miss (verified against the file's attached checksums, retried under
  /// the pool's StorageRetryPolicy). On failure returns the last error —
  /// kIoError or kCorruption — and the frame is gone from the pool.
  /// When every frame is pinned (the pool is sized too small for the
  /// concurrent pin load) returns kIoError naming the capacity, and a
  /// pool without frames returns kInvalidArgument — either without
  /// inserting a frame or counting a read. `io` (optional) receives the
  /// call's hit or page read and its failure counters; the failure
  /// counters also add into the pool's lifetime counters.
  ///
  /// `cancel` bounds the retry budget: backoff sleeps are capped by the
  /// token's RemainingMicros() and a tripped token abandons the
  /// remaining attempts, returning the token's typed status
  /// (kDeadlineExceeded/kCancelled) instead of sleeping past the
  /// query's own deadline. One query's cancellation never leaks into a
  /// coalesced neighbour: a waiter that finds the frame failed with a
  /// cancellation-typed error retries the load itself, under its own
  /// token and a fresh retry budget.
  StatusOr<PageRef> Pin(const PageFile& file, std::int64_t page,
                        IoCounters* io = nullptr,
                        const CancellationToken& cancel = {});

  /// Best-effort read-ahead of pages [first, first + count): faults the
  /// uncached ones in one coalesced read per gap, without pinning them
  /// beyond the load. Skips silently when free frames are scarce. The
  /// run is capped at min(64, capacity/4) pages so a prefetch can never
  /// flush a small pool. Pages whose read fails or whose checksum does
  /// not verify are dropped (not cached, no retry — the demand fault
  /// will retry under the policy). `io` (optional) receives the kept
  /// pages as pages read, and the failures. Returns the number of pages
  /// actually faulted AND kept.
  std::int64_t Prefetch(const PageFile& file, std::int64_t first,
                        std::int64_t count, IoCounters* io = nullptr);

  /// Drops every cached page and zeroes the counters; aborts if any page
  /// is still pinned. For cold-cache benchmarks and tests.
  void Reset();

  std::int64_t capacity_pages() const { return capacity_pages_; }
  std::int64_t page_size() const { return page_size_; }

  /// Snapshot of the counters (consistent across fields).
  PoolStats stats() const;

 private:
  struct Frame {
    std::int32_t slot = -1;    ///< index into the arena
    std::int32_t pins = 0;     ///< outstanding PageRefs
    bool loading = false;      ///< I/O in flight; wait on cv_
    bool failed = false;       ///< load failed; error below, never served
    Status error;              ///< set iff failed
  };

  static std::uint64_t MakeKey(std::uint32_t file_id, std::int64_t page) {
    return (static_cast<std::uint64_t>(file_id) << 40) |
           static_cast<std::uint64_t>(page);
  }

  std::byte* SlotData(std::int32_t slot) {
    return arena_.data() + static_cast<std::size_t>(slot) * page_size_;
  }

  /// Pops a free arena slot, evicting an unpinned page if none is free.
  /// Returns -1 when every frame is pinned or loading. Caller holds mu_.
  std::int32_t AcquireSlot();

  /// Reads `page` into `slot` and CRC-verifies it, retrying under the
  /// policy with bounded backoff — sleeps capped by `cancel`'s remaining
  /// deadline, a tripped token returning its typed status. Called
  /// UNLOCKED; counts its failures into `io`.
  Status LoadWithRetry(const PageFile& file, std::int64_t page,
                       std::int32_t slot, IoCounters* io,
                       const CancellationToken& cancel);

  /// Drops one pin of a failed frame; the last pin out erases the frame
  /// and recycles its slot. Caller holds mu_ and must notify cv_.
  void ReleaseFailedLocked(std::uint64_t key, Frame* f);

  /// Adds one call's failure counters to the pool's lifetime counters
  /// and all of `io` to the caller's `out` (when non-null). Caller holds
  /// mu_.
  void MergeIoLocked(const IoCounters& io, IoCounters* out);

  void Unpin(std::uint64_t key);

  const std::int64_t capacity_pages_;
  const std::int64_t page_size_;
  const StorageRetryPolicy retry_;
  std::vector<std::byte> arena_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< signalled when a load completes
  LruCache<std::uint64_t, Frame> cache_;
  std::vector<std::int32_t> free_slots_;
  std::int64_t prefetched_ = 0;
  std::int64_t pinned_ = 0;  ///< total outstanding pins across all frames
  std::int64_t io_errors_ = 0;
  std::int64_t io_retries_ = 0;
  std::int64_t checksum_failures_ = 0;

  friend class PageRef;
};

/// RAII pin on one resident page: `data()` stays valid and the frame
/// unevictable for the ref's lifetime. Move-only.
class BufferPool::PageRef {
 public:
  PageRef(PageRef&& other) noexcept
      : pool_(other.pool_), key_(other.key_), data_(other.data_),
        hit_(other.hit_) {
    other.pool_ = nullptr;
  }
  PageRef& operator=(PageRef&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      key_ = other.key_;
      data_ = other.data_;
      hit_ = other.hit_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  const std::byte* data() const { return data_; }
  /// True when the pin was served from cache (no demand fault).
  bool hit() const { return hit_; }

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, std::uint64_t key, const std::byte* data, bool hit)
      : pool_(pool), key_(key), data_(data), hit_(hit) {}

  void Release() {
    if (pool_ != nullptr) {
      pool_->Unpin(key_);
      pool_ = nullptr;
    }
  }

  BufferPool* pool_;
  std::uint64_t key_;
  const std::byte* data_;
  bool hit_;
};

}  // namespace mdw::storage

#endif  // MDW_STORAGE_BUFFER_POOL_H_
