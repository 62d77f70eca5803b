// Buffer-pool tests: hit/miss/eviction accounting of the page-granular
// LRU pool, pin semantics (pinned frames are never victims; releasing a
// pin makes the frame evictable again; a pin with every frame pinned is
// a typed error that reads nothing), coalesced prefetch with its
// pool-flush cap, Reset, data integrity across evictions, concurrent
// pins of the same and different pages, and the failure path: injected
// read errors and checksum mismatches surface as typed statuses, leave
// no frame (or pin) behind, retry under the pool's policy, and never
// poison later reads.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/io_fault.h"
#include "storage/page_file.h"

namespace mdw::storage {
namespace {

constexpr std::int64_t kPageSize = 4096;
constexpr std::int64_t kValuesPerPage = kPageSize / 8;

/// Value stamped at slot `i` of page `p` in the fixture files.
std::int64_t ValueAt(std::int64_t page, std::int64_t i) {
  return page * 1'000'000 + i;
}

/// A page file on disk, deleted when the fixture dies (also on test
/// failure — gtest EXPECT/ASSERT unwind through destructors).
class TempPageFile {
 public:
  explicit TempPageFile(std::int64_t pages) {
    const char* base = std::getenv("TEST_TMPDIR");
    path_ = std::string(base != nullptr ? base : "/tmp") +
            "/mdw_buffer_pool_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".bin";
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    for (std::int64_t p = 0; p < pages; ++p) {
      for (std::int64_t i = 0; i < kValuesPerPage; ++i) {
        const std::int64_t v = ValueAt(p, i);
        out.write(reinterpret_cast<const char*>(&v), sizeof v);
      }
    }
  }
  ~TempPageFile() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Pin that must succeed (the fault-free common case of every test that
/// predates the failure path).
BufferPool::PageRef MustPin(BufferPool& pool, const PageFile& file,
                            std::int64_t page) {
  StatusOr<BufferPool::PageRef> ref = pool.Pin(file, page);
  EXPECT_TRUE(ref.ok()) << ref.status().ToString();
  return std::move(ref).value();
}

std::int64_t ReadValue(const BufferPool::PageRef& ref, std::int64_t i) {
  return reinterpret_cast<const std::int64_t*>(ref.data())[i];
}

/// The true CRC-32C of every fixture page (the image is fully determined
/// by ValueAt).
std::vector<std::uint32_t> CorrectChecksums(std::int64_t pages) {
  std::vector<std::uint32_t> crcs;
  std::vector<std::int64_t> buf(static_cast<std::size_t>(kValuesPerPage));
  for (std::int64_t p = 0; p < pages; ++p) {
    for (std::int64_t i = 0; i < kValuesPerPage; ++i) {
      buf[static_cast<std::size_t>(i)] = ValueAt(p, i);
    }
    crcs.push_back(Crc32c(buf.data(), static_cast<std::size_t>(kPageSize)));
  }
  return crcs;
}

TEST(BufferPoolTest, MissThenHitAccounting) {
  TempPageFile tmp(4);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(4, kPageSize);
  {
    auto ref = MustPin(pool, *file, 1);
    EXPECT_FALSE(ref.hit());
    EXPECT_EQ(ReadValue(ref, 3), ValueAt(1, 3));
  }
  {
    auto ref = MustPin(pool, *file, 1);
    EXPECT_TRUE(ref.hit());
  }
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_EQ(stats.pages_read, 1);
  EXPECT_EQ(stats.bytes_read, kPageSize);
  EXPECT_EQ(stats.io_errors, 0);
  EXPECT_EQ(stats.io_retries, 0);
  EXPECT_EQ(stats.checksum_failures, 0);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsedWhenFull) {
  TempPageFile tmp(8);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(2, kPageSize);
  { auto r = MustPin(pool, *file, 0); }
  { auto r = MustPin(pool, *file, 1); }
  { auto r = MustPin(pool, *file, 0); }  // page 0 now MRU, page 1 LRU
  { auto r = MustPin(pool, *file, 2); }  // must evict page 1
  EXPECT_EQ(pool.stats().evictions, 1);
  EXPECT_TRUE(MustPin(pool, *file, 0).hit());
  EXPECT_FALSE(MustPin(pool, *file, 1).hit());  // was the victim
}

TEST(BufferPoolTest, PinnedPagesAreNeverEvicted) {
  TempPageFile tmp(8);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(2, kPageSize);
  auto pinned = MustPin(pool, *file, 0);  // held across the churn below
  for (std::int64_t p = 1; p < 8; ++p) {
    auto r = MustPin(pool, *file, p);
    EXPECT_EQ(ReadValue(r, 7), ValueAt(p, 7));
  }
  // Page 0 was the LRU candidate the whole time but stayed resident.
  EXPECT_TRUE(MustPin(pool, *file, 0).hit());
  EXPECT_EQ(ReadValue(pinned, 0), ValueAt(0, 0));
}

TEST(BufferPoolTest, PinWithEveryFramePinnedIsATypedError) {
  TempPageFile tmp(2);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(1, kPageSize);
  {
    auto pinned = MustPin(pool, *file, 0);  // holds the only frame
    IoCounters io;
    StatusOr<BufferPool::PageRef> refused = pool.Pin(*file, 1, &io);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kIoError);
    EXPECT_NE(refused.status().message().find("1 frames"), std::string::npos)
        << refused.status().ToString();
    // Nothing was read: no failure, no page, no miss anywhere.
    EXPECT_EQ(io, IoCounters{});
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.io_errors, 0);
    EXPECT_EQ(stats.misses, 1);  // page 0's fault only
    EXPECT_EQ(stats.pages_read, 1);
    EXPECT_EQ(ReadValue(pinned, 0), ValueAt(0, 0));
  }
  // With the first pin dropped its frame is free to recycle.
  auto ref = MustPin(pool, *file, 1);
  EXPECT_FALSE(ref.hit());
  EXPECT_EQ(ReadValue(ref, 5), ValueAt(1, 5));
  EXPECT_EQ(pool.stats().io_errors, 0);
}

TEST(BufferPoolTest, ReleasedPinMakesFrameEvictableAgain) {
  TempPageFile tmp(8);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(2, kPageSize);
  {
    auto pinned = MustPin(pool, *file, 0);
  }  // released
  { auto r = MustPin(pool, *file, 1); }
  { auto r = MustPin(pool, *file, 2); }  // evicts page 0 now that it is unpinned
  EXPECT_FALSE(MustPin(pool, *file, 0).hit());
}

TEST(BufferPoolTest, DataSurvivesEvictionChurn) {
  constexpr std::int64_t kPages = 32;
  TempPageFile tmp(kPages);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(4, kPageSize);  // far smaller than the file
  for (int round = 0; round < 3; ++round) {
    for (std::int64_t p = 0; p < kPages; ++p) {
      auto ref = MustPin(pool, *file, p);
      EXPECT_EQ(ReadValue(ref, 0), ValueAt(p, 0));
      EXPECT_EQ(ReadValue(ref, kValuesPerPage - 1),
                ValueAt(p, kValuesPerPage - 1));
    }
  }
  // Cyclic sweep over a smaller pool: every access misses.
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 3 * kPages);
  EXPECT_GT(stats.evictions, 0);
}

TEST(BufferPoolTest, PrefetchFaultsRunOnceAndPinsCountAsHits) {
  TempPageFile tmp(32);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(64, kPageSize);
  EXPECT_EQ(pool.Prefetch(*file, 0, 8), 8);
  {
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.prefetched, 8);
    EXPECT_EQ(stats.misses, 0);
    EXPECT_EQ(stats.pages_read, 8);
  }
  for (std::int64_t p = 0; p < 8; ++p) {
    auto ref = MustPin(pool, *file, p);
    EXPECT_TRUE(ref.hit());
    EXPECT_EQ(ReadValue(ref, 5), ValueAt(p, 5));
  }
  // Already-resident pages are skipped by a second prefetch.
  EXPECT_EQ(pool.Prefetch(*file, 0, 8), 0);
  EXPECT_EQ(pool.stats().prefetched, 8);
}

TEST(BufferPoolTest, PrefetchRunIsCappedAgainstPoolFlush) {
  TempPageFile tmp(32);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(16, kPageSize);
  // Cap is min(64, capacity / 4) = 4 pages per call.
  EXPECT_EQ(pool.Prefetch(*file, 0, 32), 4);
}

TEST(BufferPoolTest, ResetDropsPagesAndCounters) {
  TempPageFile tmp(8);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(4, kPageSize);
  { auto r = MustPin(pool, *file, 0); }
  { auto r = MustPin(pool, *file, 0); }
  pool.Reset();
  const PoolStats zero = pool.stats();
  EXPECT_EQ(zero.hits, 0);
  EXPECT_EQ(zero.misses, 0);
  EXPECT_EQ(zero.pages_read, 0);
  EXPECT_FALSE(MustPin(pool, *file, 0).hit());  // cold again
}

TEST(BufferPoolTest, ConcurrentPinsOfTheSamePageCoalesceTheRead) {
  TempPageFile tmp(4);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(4, kPageSize);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::int64_t> got(kThreads, -1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto ref = MustPin(pool, *file, 2);
      got[static_cast<std::size_t>(t)] = ReadValue(ref, t);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)], ValueAt(2, t));
  }
  const PoolStats stats = pool.stats();
  // Exactly one thread faulted the page; everyone else hit (resident or
  // load-in-flight).
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, kThreads - 1);
}

TEST(BufferPoolTest, ConcurrentScansOverSmallPoolStayCorrect) {
  constexpr std::int64_t kPages = 64;
  TempPageFile tmp(kPages);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  BufferPool pool(8, kPageSize);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  // One slot per thread; not vector<bool>, whose bits share words.
  std::vector<char> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool all_good = true;
      for (std::int64_t p = 0; p < kPages; ++p) {
        const std::int64_t page = (p + t * 16) % kPages;
        auto ref = MustPin(pool, *file, page);
        all_good = all_good && ReadValue(ref, 9) == ValueAt(page, 9);
      }
      ok[static_cast<std::size_t>(t)] = all_good;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_TRUE(ok[static_cast<std::size_t>(t)]);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kPages);
}

// ---------------------------------------------------------------------------
// Failure path

TEST(BufferPoolTest, InjectedReadErrorSurfacesTypedAndLeavesPoolClean) {
  TempPageFile tmp(8);
  FaultPlan plan;
  plan.scripted.push_back({/*file_id=*/0, /*page=*/2, FaultKind::kEio,
                           /*count=*/1});
  FaultInjector injector(plan);
  auto file = injector.Wrap(PageFile::Open(tmp.path(), kPageSize, 0));
  BufferPool pool(4, kPageSize);

  // Establish LRU state that must survive the failure untouched.
  { auto r = MustPin(pool, *file, 0); }
  { auto r = MustPin(pool, *file, 1); }

  IoCounters io;
  StatusOr<BufferPool::PageRef> failed = pool.Pin(*file, 2, &io);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
  EXPECT_EQ(io.io_errors, 1);
  EXPECT_EQ(io.io_retries, 0);

  // Nothing poisoned stays cached and no pin leaked: the prior residents
  // still hit, the failed page misses (fresh load, scripted fault spent),
  // and Reset() — which aborts on any outstanding pin — passes.
  EXPECT_TRUE(MustPin(pool, *file, 0).hit());
  EXPECT_TRUE(MustPin(pool, *file, 1).hit());
  auto retried = MustPin(pool, *file, 2);
  EXPECT_FALSE(retried.hit());
  EXPECT_EQ(ReadValue(retried, 4), ValueAt(2, 4));
  {
    const PoolStats stats = pool.stats();
    EXPECT_EQ(stats.io_errors, 1);
    EXPECT_EQ(stats.checksum_failures, 0);
  }
  { auto drop = std::move(retried); }  // release the last pin
  pool.Reset();
  EXPECT_EQ(pool.stats().io_errors, 0);
}

TEST(BufferPoolTest, RetryPolicyClearsTransientFault) {
  TempPageFile tmp(4);
  FaultPlan plan;
  plan.scripted.push_back({/*file_id=*/0, /*page=*/1, FaultKind::kEio,
                           /*count=*/1});
  FaultInjector injector(plan);
  auto file = injector.Wrap(PageFile::Open(tmp.path(), kPageSize, 0));
  BufferPool pool(4, kPageSize,
                  StorageRetryPolicy{.max_attempts = 2});

  IoCounters io;
  StatusOr<BufferPool::PageRef> ref = pool.Pin(*file, 1, &io);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ReadValue(*ref, 0), ValueAt(1, 0));
  EXPECT_EQ(io.io_errors, 1);   // the first attempt failed...
  EXPECT_EQ(io.io_retries, 1);  // ...and the one retry succeeded
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.io_errors, 1);
  EXPECT_EQ(stats.io_retries, 1);
  EXPECT_EQ(stats.misses, 1);
}

TEST(BufferPoolTest, ChecksumMismatchSurfacesAsCorruption) {
  TempPageFile tmp(4);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  std::vector<std::uint32_t> crcs = CorrectChecksums(4);
  crcs[2] ^= 0x1u;  // page 2's stored checksum is wrong (at-rest damage)
  file->AttachChecksums(0, std::move(crcs));
  BufferPool pool(4, kPageSize);

  IoCounters io;
  StatusOr<BufferPool::PageRef> bad = pool.Pin(*file, 2, &io);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(io.checksum_failures, 1);
  EXPECT_EQ(io.io_errors, 0);

  // At-rest corruption is sticky: a retry re-reads the same bytes and
  // fails again — but other pages verify fine, before and after.
  EXPECT_EQ(ReadValue(MustPin(pool, *file, 1), 8), ValueAt(1, 8));
  EXPECT_FALSE(pool.Pin(*file, 2).ok());
  EXPECT_EQ(ReadValue(MustPin(pool, *file, 3), 8), ValueAt(3, 8));
  EXPECT_EQ(pool.stats().checksum_failures, 2);
  pool.Reset();  // no leaked pins from the failures
}

TEST(BufferPoolTest, PrefetchDropsUnverifiablePagesAndKeepsTheRest) {
  TempPageFile tmp(16);
  auto file = PageFile::Open(tmp.path(), kPageSize, 0);
  std::vector<std::uint32_t> crcs = CorrectChecksums(16);
  crcs[3] ^= 0xFFu;
  file->AttachChecksums(0, std::move(crcs));
  BufferPool pool(64, kPageSize);

  IoCounters io;
  EXPECT_EQ(pool.Prefetch(*file, 0, 8, &io), 7);  // page 3 dropped
  EXPECT_EQ(io.checksum_failures, 1);
  EXPECT_EQ(pool.stats().prefetched, 7);
  for (std::int64_t p = 0; p < 8; ++p) {
    if (p == 3) {
      // The dropped page was never cached; its demand fault re-verifies
      // and fails typed.
      StatusOr<BufferPool::PageRef> r = pool.Pin(*file, p);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
    } else {
      auto r = MustPin(pool, *file, p);
      EXPECT_TRUE(r.hit());
      EXPECT_EQ(ReadValue(r, 1), ValueAt(p, 1));
    }
  }
  pool.Reset();
}

TEST(BufferPoolTest, ConcurrentPinsUnderInjectedFaultsRecover) {
  constexpr std::int64_t kPages = 32;
  TempPageFile tmp(kPages);
  FaultPlan plan;
  plan.seed = 42;
  plan.eio_rate = 0.3;
  FaultInjector injector(plan);
  auto file = injector.Wrap(PageFile::Open(tmp.path(), kPageSize, 0));
  BufferPool pool(8, kPageSize,
                  StorageRetryPolicy{.max_attempts = 4});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  // One slot per thread; not vector<bool>, whose bits share words.
  std::vector<char> ok(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bool all_good = true;
      for (std::int64_t p = 0; p < kPages; ++p) {
        const std::int64_t page = (p + t * 4) % kPages;
        StatusOr<BufferPool::PageRef> ref = pool.Pin(*file, page);
        if (ref.ok()) {
          // A successful pin must serve intact bytes no matter how many
          // failures the loader (or a sibling waiter) weathered.
          all_good = all_good && ReadValue(*ref, 9) == ValueAt(page, 9);
        } else {
          all_good = all_good &&
                     ref.status().code() == StatusCode::kIoError;
        }
      }
      ok[static_cast<std::size_t>(t)] = all_good;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[static_cast<std::size_t>(t)]);
  }
  EXPECT_GT(pool.stats().io_retries, 0);
  // Every failed frame drained fully: no pins outstanding (Reset aborts
  // otherwise) and a clean sweep succeeds afterwards (each page's next
  // attempt number re-rolls the fault decision — with max_attempts=4 per
  // pin this converges fast; keep pinning until it does).
  pool.Reset();
  for (std::int64_t p = 0; p < kPages; ++p) {
    StatusOr<BufferPool::PageRef> ref = pool.Pin(*file, p);
    for (int tries = 0; !ref.ok() && tries < 8; ++tries) {
      ref = pool.Pin(*file, p);
    }
    ASSERT_TRUE(ref.ok()) << "page " << p << ": " << ref.status().ToString();
    EXPECT_EQ(ReadValue(*ref, 0), ValueAt(p, 0));
  }
}

}  // namespace
}  // namespace mdw::storage
