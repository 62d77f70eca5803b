#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "common/check.h"

namespace mdw::storage {

namespace {

/// Retry backoff growth: each sleep after the first is twice the one
/// before, capped at 10 ms (the first sleep is the policy's backoff_us).
constexpr double kBackoffMultiplier = 2.0;
constexpr std::int64_t kMaxBackoffUs = 10'000;

}  // namespace

BufferPool::BufferPool(std::int64_t capacity_pages, std::int64_t page_size,
                       StorageRetryPolicy retry)
    : capacity_pages_(std::max<std::int64_t>(capacity_pages, 0)),
      page_size_(page_size),
      retry_(retry),
      cache_(capacity_pages_) {
  MDW_CHECK(page_size >= 1, "buffer pool page size must be positive");
  MDW_CHECK(retry_.max_attempts >= 1,
            "retry policy needs at least one attempt");
  arena_.resize(static_cast<std::size_t>(capacity_pages_ * page_size));
  free_slots_.reserve(static_cast<std::size_t>(capacity_pages_));
  for (std::int64_t s = capacity_pages_ - 1; s >= 0; --s) {
    free_slots_.push_back(static_cast<std::int32_t>(s));
  }
}

BufferPool::~BufferPool() = default;

std::int32_t BufferPool::AcquireSlot() {
  if (free_slots_.empty()) {
    // Pool full: evict one unpinned, fully-loaded page to recycle its slot.
    // Failed frames are never victims — they always hold at least one pin
    // until the failure protocol erases them.
    cache_.EvictToFit(
        1, [](const Frame& fr) { return fr.pins == 0 && !fr.loading; },
        [this](std::uint64_t, const Frame& fr) {
          free_slots_.push_back(fr.slot);
        });
  }
  if (free_slots_.empty()) return -1;
  const std::int32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

Status BufferPool::LoadWithRetry(const PageFile& file, std::int64_t page,
                                 std::int32_t slot, IoCounters* io,
                                 const CancellationToken& cancel) {
  Status st;
  std::int64_t backoff = retry_.backoff_us;
  for (int attempt = 0;; ++attempt) {
    if (attempt > 0) {
      // A tripped token abandons the remaining retry budget: the
      // query's typed status replaces the (transient) I/O error it
      // would otherwise keep retrying.
      if (cancel.ShouldStop()) return cancel.CancelStatus();
      ++io->io_retries;
      if (backoff > 0) {
        // Never sleep past the query's own deadline.
        const std::int64_t sleep_us =
            std::min(backoff, cancel.RemainingMicros());
        if (sleep_us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
        }
        backoff = std::min<std::int64_t>(
            static_cast<std::int64_t>(static_cast<double>(backoff) *
                                      kBackoffMultiplier),
            kMaxBackoffUs);
      }
    }
    st = file.ReadPages(page, 1, SlotData(slot));
    if (st.ok()) {
      st = file.VerifyPage(page, SlotData(slot));
      if (!st.ok()) ++io->checksum_failures;
    } else {
      ++io->io_errors;
    }
    if (st.ok() || attempt + 1 >= retry_.max_attempts) return st;
  }
}

void BufferPool::ReleaseFailedLocked(std::uint64_t key, Frame* f) {
  --f->pins;
  --pinned_;
  if (f->pins == 0) {
    free_slots_.push_back(f->slot);
    cache_.Erase(key);
  }
}

void BufferPool::MergeIoLocked(const IoCounters& io, IoCounters* out) {
  io_errors_ += io.io_errors;
  io_retries_ += io.io_retries;
  checksum_failures_ += io.checksum_failures;
  if (out != nullptr) out->Merge(io);
}

StatusOr<BufferPool::PageRef> BufferPool::Pin(const PageFile& file,
                                              std::int64_t page,
                                              IoCounters* io,
                                              const CancellationToken& cancel) {
  MDW_CHECK(page_size_ == file.page_size(), "page size mismatch with pool");
  const std::uint64_t key = MakeKey(file.file_id(), page);
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (Frame* f = cache_.Get(key); f != nullptr) {
      if (f->failed) {
        // Another pinner's load failed and its waiters are draining; a
        // failed frame is never served. Wait until the failure protocol
        // erases it, then retry the pin with a fresh load (and a fresh
        // retry budget — transient faults clear, sticky ones fail again).
        cv_.wait(lk, [&] {
          const Frame* cur = cache_.Peek(key);
          return cur == nullptr || !cur->failed;
        });
        continue;
      }
      // Resident or being loaded by another thread: either way the caller
      // avoids a demand fault, so it counts as a hit. Pin first so the
      // frame cannot be evicted while we wait for the in-flight load.
      ++f->pins;
      ++pinned_;
      if (f->loading) {
        cv_.wait(lk, [&] { return !f->loading; });
        if (f->failed) {
          const Status st = f->error;
          ReleaseFailedLocked(key, f);
          cv_.notify_all();
          if (st.code() == StatusCode::kCancelled ||
              st.code() == StatusCode::kDeadlineExceeded) {
            // The loader gave up because ITS query was cancelled or
            // deadlined — that says nothing about this pin's query.
            // Retry the load under this caller's own token and a fresh
            // retry budget instead of inheriting a neighbour's fate.
            continue;
          }
          // An I/O or corruption error is this pin's error too; the
          // last pin out erased the frame so nothing poisoned stays
          // cached.
          return st;
        }
      }
      if (io != nullptr) ++io->buffer_hits;
      return PageRef(this, key, SlotData(f->slot), /*hit=*/true);
    }
    const std::int32_t slot = AcquireSlot();
    if (slot < 0) {
      // Too small a pool for the concurrent pin load, or one configured
      // without frames. Nothing is read, so the lookup above counts as
      // no miss (pages_read derives from the misses).
      cache_.UncountMiss();
      if (capacity_pages_ == 0) {
        return Status::InvalidArgument(
            "buffer pool has no frames: storage_pool_pages must be at "
            "least 1");
      }
      return Status::IoError("buffer pool exhausted: every one of its " +
                             std::to_string(capacity_pages_) +
                             " frames is pinned");
    }
    Frame* f = cache_.Insert(
        key, Frame{slot, /*pins=*/1, /*loading=*/true, /*failed=*/false, {}},
        /*weight=*/1);
    ++pinned_;
    lk.unlock();
    IoCounters local;
    const Status st = LoadWithRetry(file, page, slot, &local, cancel);
    if (st.ok()) {
      local.pages_read = 1;
      local.bytes_read = page_size_;
    }
    lk.lock();
    MergeIoLocked(local, io);
    f->loading = false;
    if (!st.ok()) {
      f->failed = true;
      f->error = st;
      ReleaseFailedLocked(key, f);
      cv_.notify_all();
      return st;
    }
    cv_.notify_all();
    return PageRef(this, key, SlotData(slot), /*hit=*/false);
  }
}

void BufferPool::Unpin(std::uint64_t key) {
  std::lock_guard<std::mutex> lk(mu_);
  Frame* f = cache_.Peek(key);
  MDW_CHECK(f != nullptr && f->pins > 0, "unpin of a page that is not pinned");
  --f->pins;
  --pinned_;
}

std::int64_t BufferPool::Prefetch(const PageFile& file, std::int64_t first,
                                  std::int64_t count, IoCounters* io) {
  MDW_CHECK(page_size_ == file.page_size(), "page size mismatch with pool");
  first = std::max<std::int64_t>(first, 0);
  count = std::min(count, file.page_count() - first);
  // Cap the run so one prefetch can never flush a small pool.
  count = std::min(count, std::min<std::int64_t>(64, capacity_pages_ / 4));
  if (count <= 0) return 0;

  // Claim frames for the uncached pages, grouped into runs of
  // consecutive pages so each run is one coalesced read.
  std::vector<std::int64_t> pages;
  std::vector<std::int32_t> slots;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::int64_t p = first; p < first + count; ++p) {
      const std::uint64_t key = MakeKey(file.file_id(), p);
      if (cache_.Peek(key) != nullptr) continue;  // already resident
      const std::int32_t slot = AcquireSlot();
      if (slot < 0) break;  // best-effort: stop when frames run out
      cache_.Insert(
          key, Frame{slot, /*pins=*/1, /*loading=*/true, /*failed=*/false, {}},
          /*weight=*/1);
      ++pinned_;
      pages.push_back(p);
      slots.push_back(slot);
    }
  }
  if (pages.empty()) return 0;

  // Read each run of consecutive claimed pages in one call, landing in a
  // scratch buffer (arena slots are scattered), then verify and scatter
  // to slots. Prefetch never retries: a page whose run failed or whose
  // checksum mismatches is simply dropped — the demand fault that later
  // needs it retries under the pool's policy.
  std::vector<std::byte> scratch;
  std::vector<Status> page_status(pages.size());
  IoCounters local;
  std::size_t i = 0;
  while (i < pages.size()) {
    std::size_t j = i + 1;
    while (j < pages.size() && pages[j] == pages[j - 1] + 1) ++j;
    const std::int64_t run_len = static_cast<std::int64_t>(j - i);
    scratch.resize(static_cast<std::size_t>(run_len * page_size_));
    const Status run_st = file.ReadPages(pages[i], run_len, scratch.data());
    if (!run_st.ok()) {
      ++local.io_errors;
      for (std::size_t k = i; k < j; ++k) page_status[k] = run_st;
      i = j;
      continue;
    }
    for (std::size_t k = i; k < j; ++k) {
      const std::byte* img =
          scratch.data() + (k - i) * static_cast<std::size_t>(page_size_);
      page_status[k] = file.VerifyPage(pages[k], img);
      if (!page_status[k].ok()) {
        ++local.checksum_failures;
        continue;
      }
      std::memcpy(SlotData(slots[k]), img,
                  static_cast<std::size_t>(page_size_));
    }
    i = j;
  }

  std::int64_t kept = 0;
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t k = 0; k < pages.size(); ++k) {
    const std::uint64_t key = MakeKey(file.file_id(), pages[k]);
    Frame* f = cache_.Peek(key);
    MDW_CHECK(f != nullptr, "prefetched frame vanished while pinned");
    f->loading = false;
    if (page_status[k].ok()) {
      ++kept;
      --f->pins;
      --pinned_;
    } else {
      // Same failure protocol as Pin: waiters (if any pinned while the
      // load was in flight) observe the error and drain the frame.
      f->failed = true;
      f->error = page_status[k];
      ReleaseFailedLocked(key, f);
    }
  }
  prefetched_ += kept;
  local.pages_read = kept;
  local.bytes_read = kept * page_size_;
  MergeIoLocked(local, io);
  cv_.notify_all();
  return kept;
}

void BufferPool::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  MDW_CHECK(pinned_ == 0, "cannot reset a buffer pool with pinned pages");
  cache_.Reset();
  free_slots_.clear();
  for (std::int64_t s = capacity_pages_ - 1; s >= 0; --s) {
    free_slots_.push_back(static_cast<std::int32_t>(s));
  }
  prefetched_ = 0;
  io_errors_ = 0;
  io_retries_ = 0;
  checksum_failures_ = 0;
}

PoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  PoolStats s;
  s.hits = cache_.hits();
  s.misses = cache_.misses();
  s.evictions = cache_.evictions();
  s.prefetched = prefetched_;
  s.pages_read = s.misses + s.prefetched;
  s.bytes_read = s.pages_read * page_size_;
  s.io_errors = io_errors_;
  s.io_retries = io_retries_;
  s.checksum_failures = checksum_failures_;
  return s;
}

}  // namespace mdw::storage
