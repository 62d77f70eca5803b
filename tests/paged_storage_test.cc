// File-backed store tests: bit-identical parity of the paged segment
// store against the in-RAM store across shard and worker counts (facade
// execution, full scans, bitmap paths, and another clustering), segment
// reuse and rejection of stale/corrupt/truncated files, a typed I/O
// error when a segment is truncated under the open reader, the on-disk
// format invariants, query I/O counters against the buffer pool's own
// accounting (and their per-shard split), service through a pool far
// smaller than the working set, a typed error (never an abort) from a
// pool too small for one scan lane or without any frame, a grouped scan
// in one frame per cursor, and pages_read against PagedLayout's
// page-count predictions on residual vs covered queries.
//
// Every test writes under a mkdtemp directory removed by an RAII guard,
// so failures don't leak segment files into the tree.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/mini_warehouse.h"
#include "core/paged_layout.h"
#include "core/warehouse.h"
#include "fragment/fragmentation.h"
#include "fragment/query_planner.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"
#include "storage/segment_store.h"

namespace mdw {
namespace {

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

// The reduced APB-1 sweep of the sharded-execution tests: fully covered,
// residual, unsupported, multi-fragment and IN-list shapes.
std::vector<StarQuery> QuerySweep() {
  std::vector<StarQuery> queries;
  queries.push_back(apb1_queries::OneMonthOneGroup(3, 7));
  queries.push_back(apb1_queries::OneMonth(5));
  queries.push_back(apb1_queries::OneQuarter(2));
  queries.push_back(apb1_queries::OneCode(30));
  queries.push_back(apb1_queries::OneCodeOneMonth(30, 3));
  queries.push_back(apb1_queries::OneStore(17));
  queries.push_back(apb1_queries::OneGroupOneStore(7, 17));
  queries.push_back(StarQuery("IN_LIST", {{kApb1Product, 5, {1, 2, 50}},
                                          {kApb1Time, 2, {0, 6}}}));
  return queries;
}

/// mkdtemp directory removed (recursively) when the guard dies — on
/// test failure too, since gtest EXPECT/ASSERT unwind through scopes.
class TempDir {
 public:
  TempDir() {
    const char* base = std::getenv("TEST_TMPDIR");
    std::string tmpl =
        std::string(base != nullptr ? base : "/tmp") + "/mdw_paged_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    const char* got = ::mkdtemp(buf.data());
    EXPECT_NE(got, nullptr);
    path_ = got != nullptr ? got : tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

storage::StoreOptions Opts(const std::string& path,
                           std::int64_t pool_pages = 4096,
                           bool prefetch = true) {
  storage::StoreOptions o;
  o.path = path;
  o.pool_pages = pool_pages;
  o.prefetch = prefetch;
  return o;
}

MiniWarehouse MakeRam(int num_shards, std::uint64_t seed = 42,
                      bool summaries = true) {
  return MiniWarehouse(MakeTinyApb1Schema(), seed, MonthGroup(), summaries,
                       num_shards);
}

MiniWarehouse MakePaged(int num_shards, const storage::StoreOptions& opts,
                        std::uint64_t seed = 42, bool summaries = true) {
  return MiniWarehouse(MakeTinyApb1Schema(), seed, MonthGroup(), summaries,
                       num_shards, {}, opts);
}

Warehouse MakeFacade(int shards, int workers, std::string storage_path = {},
                     std::int64_t pool_pages = 4096, bool summaries = true,
                     bool prefetch = true) {
  WarehouseConfig cfg{.schema = MakeTinyApb1Schema()};
  cfg.fragmentation = MonthGroup();
  cfg.backend = BackendKind::kMaterialized;
  cfg.seed = 42;
  cfg.num_workers = workers;
  cfg.num_shards = shards;
  cfg.enable_fragment_summaries = summaries;
  cfg.storage_path = std::move(storage_path);
  cfg.storage_pool_pages = pool_pages;
  cfg.storage_prefetch = prefetch;
  return Warehouse(std::move(cfg));
}

/// The logical half of two outcomes must match exactly; the I/O fields
/// are checked separately (they are zero in RAM by design).
void ExpectLogicalParity(const QueryOutcome& ram, const QueryOutcome& paged) {
  ASSERT_TRUE(ram.aggregate.has_value());
  ASSERT_TRUE(paged.aggregate.has_value());
  EXPECT_EQ(*ram.aggregate, *paged.aggregate);
  EXPECT_EQ(ram.rows_scanned, paged.rows_scanned);
  EXPECT_EQ(ram.fragments_processed, paged.fragments_processed);
  EXPECT_EQ(ram.fragments_summarized, paged.fragments_summarized);
  EXPECT_EQ(ram.rows_summarized, paged.rows_summarized);
  EXPECT_EQ(ram.query_class, paged.query_class);
  EXPECT_EQ(ram.io_class, paged.io_class);
  EXPECT_EQ(ram.shard_skew, paged.shard_skew);
  ASSERT_EQ(ram.shards.size(), paged.shards.size());
  for (std::size_t s = 0; s < ram.shards.size(); ++s) {
    EXPECT_EQ(ram.shards[s].rows_scanned, paged.shards[s].rows_scanned);
    EXPECT_EQ(ram.shards[s].rows_summarized, paged.shards[s].rows_summarized);
    EXPECT_EQ(ram.shards[s].fragments_processed,
              paged.shards[s].fragments_processed);
    EXPECT_EQ(ram.shards[s].fragments_summarized,
              paged.shards[s].fragments_summarized);
    EXPECT_EQ(ram.shards[s].pages_read, 0);
    EXPECT_EQ(ram.shards[s].bytes_read, 0);
  }
}

// ---------------------------------------------------------------------------
// Parity with the in-RAM store

TEST(PagedStorageTest, FacadeParityAcrossShardsAndWorkers) {
  for (const int shards : {1, 4}) {
    TempDir dir;
    for (const int workers : {1, 8}) {
      const Warehouse ram = MakeFacade(shards, workers);
      const Warehouse paged = MakeFacade(shards, workers, dir.path());
      ASSERT_TRUE(paged.materialized()->file_backed());
      for (const StarQuery& q : QuerySweep()) {
        const QueryOutcome a = ram.Execute(q);
        const QueryOutcome b = paged.Execute(q);
        ExpectLogicalParity(a, b);
        EXPECT_EQ(a.pages_read, 0);
        EXPECT_EQ(a.bytes_read, 0);
        if (a.aggregate->rows > 0) {
          // The paged store had to touch the pool to answer.
          EXPECT_GT(b.pages_read + b.buffer_hits, 0) << q.name();
        }
        EXPECT_EQ(b.bytes_read,
                  b.pages_read * paged.materialized()->paged_store()
                                     ->page_size());
      }
    }
  }
}

TEST(PagedStorageTest, FullScanBitmapAndFallbackParity) {
  TempDir dir;
  // A clustering other than the month x group one of the other tests, on
  // both stores.
  const std::vector<FragAttr> quarter = {{kApb1Time, 1}};
  const MiniWarehouse ram(MakeTinyApb1Schema(), 42, quarter,
                          /*enable_summaries=*/true, /*num_shards=*/2);
  const MiniWarehouse paged(MakeTinyApb1Schema(), 42, quarter,
                            /*enable_summaries=*/true, /*num_shards=*/2, {},
                            Opts(dir.path()));
  ASSERT_TRUE(paged.file_backed());
  const Fragmentation f_ram(&ram.schema(), quarter);
  const Fragmentation f_paged(&paged.schema(), quarter);
  const QueryPlanner p_ram(&ram.schema(), &f_ram);
  const QueryPlanner p_paged(&paged.schema(), &f_paged);
  for (const StarQuery& q : QuerySweep()) {
    EXPECT_EQ(ram.ExecuteFullScan(q), paged.ExecuteFullScan(q)) << q.name();
    EXPECT_EQ(ram.ExecuteWithBitmaps(q), paged.ExecuteWithBitmaps(q))
        << q.name();
    const auto a = ram.ExecuteWithPlan(q, p_ram.Plan(q));
    const auto b = paged.ExecuteWithPlan(q, p_paged.Plan(q));
    EXPECT_EQ(a.result, b.result) << q.name();
    EXPECT_EQ(a.result, ram.ExecuteFullScan(q)) << q.name();
    EXPECT_EQ(a.rows_scanned, b.rows_scanned) << q.name();
    EXPECT_EQ(a.rows_summarized, b.rows_summarized) << q.name();
  }
}

TEST(PagedStorageTest, FactsAccessorAbortsWhenFileBacked) {
  TempDir dir;
  const MiniWarehouse paged = MakePaged(1, Opts(dir.path()));
  EXPECT_DEATH(paged.facts(), "file-backed");
}

// ---------------------------------------------------------------------------
// Segment reuse and rejection

TEST(PagedStorageTest, SegmentsAreReusedByteIdenticallyAcrossReopens) {
  TempDir dir;
  MiniWarehouse::AggregateResult first_result;
  {
    const MiniWarehouse first = MakePaged(4, Opts(dir.path()));
    EXPECT_FALSE(first.paged_store()->reused());  // nothing on disk yet
    EXPECT_TRUE(first.paged_store()->validation_error().empty());
    first_result = first.ExecuteFullScan(apb1_queries::OneMonth(5));
  }
  const MiniWarehouse second = MakePaged(4, Opts(dir.path()));
  EXPECT_TRUE(second.paged_store()->reused());
  EXPECT_TRUE(second.paged_store()->validation_error().empty());
  EXPECT_EQ(second.ExecuteFullScan(apb1_queries::OneMonth(5)), first_result);
}

TEST(PagedStorageTest, StaleSegmentsOfAnotherDatasetAreRewritten) {
  TempDir dir;
  { const MiniWarehouse seed42 = MakePaged(2, Opts(dir.path())); }
  // Same directory, different population seed: the schema hash differs,
  // so every segment fails validation and is rewritten.
  const MiniWarehouse seed43 = MakePaged(2, Opts(dir.path()), /*seed=*/43);
  EXPECT_FALSE(seed43.paged_store()->reused());
  EXPECT_FALSE(seed43.paged_store()->validation_error().empty());
  const MiniWarehouse ram43 = MakeRam(2, /*seed=*/43);
  const Fragmentation frag(&ram43.schema(), MonthGroup());
  const Fragmentation frag_paged(&seed43.schema(), MonthGroup());
  const QueryPlanner planner(&ram43.schema(), &frag);
  const QueryPlanner planner_paged(&seed43.schema(), &frag_paged);
  for (const StarQuery& q : QuerySweep()) {
    EXPECT_EQ(ram43.ExecuteWithPlan(q, planner.Plan(q)).result,
              seed43.ExecuteWithPlan(q, planner_paged.Plan(q)).result)
        << q.name();
  }
}

TEST(PagedStorageTest, CorruptHeaderIsDetectedAndRewritten) {
  TempDir dir;
  std::string segment;
  {
    const MiniWarehouse first = MakePaged(2, Opts(dir.path()));
    segment = first.paged_store()->SegmentPath(0);
  }
  {
    // Flip one byte inside the schema-hash field of shard 0's header.
    std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(16);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(16);
    f.write(&byte, 1);
  }
  const MiniWarehouse second = MakePaged(2, Opts(dir.path()));
  EXPECT_FALSE(second.paged_store()->reused());
  EXPECT_FALSE(second.paged_store()->validation_error().empty());
  const MiniWarehouse ram = MakeRam(2);
  EXPECT_EQ(ram.ExecuteFullScan(apb1_queries::OneQuarter(2)),
            second.ExecuteFullScan(apb1_queries::OneQuarter(2)));
}

TEST(PagedStorageTest, TruncatedSegmentIsDetectedAndRewritten) {
  TempDir dir;
  std::string segment;
  std::int64_t page_size = 0;
  {
    const MiniWarehouse first = MakePaged(2, Opts(dir.path()));
    segment = first.paged_store()->SegmentPath(1);
    page_size = first.paged_store()->page_size();
  }
  const auto full_size = std::filesystem::file_size(segment);
  std::filesystem::resize_file(
      segment, full_size - static_cast<std::uintmax_t>(page_size));
  const MiniWarehouse second = MakePaged(2, Opts(dir.path()));
  EXPECT_FALSE(second.paged_store()->reused());
  EXPECT_FALSE(second.paged_store()->validation_error().empty());
  EXPECT_EQ(std::filesystem::file_size(segment), full_size);  // rewritten
  const MiniWarehouse ram = MakeRam(2);
  EXPECT_EQ(ram.ExecuteWithBitmaps(apb1_queries::OneStore(17)),
            second.ExecuteWithBitmaps(apb1_queries::OneStore(17)));
}

TEST(PagedStorageTest, SegmentTruncatedUnderTheReaderFailsTyped) {
  // Truncation AFTER the store opened its segments: the reader's real
  // pread hits EOF inside the file's recorded page range, which must
  // surface as a typed kIoError on the query, never as a crash.
  TempDir dir;
  const Warehouse paged = MakeFacade(2, /*workers=*/1, dir.path());
  const storage::SegmentStore& store = *paged.materialized()->paged_store();
  const auto page_size = static_cast<std::uintmax_t>(store.page_size());
  for (int s = 0; s < store.num_shards(); ++s) {
    const std::string segment = store.SegmentPath(s);
    const std::uintmax_t quarter =
        std::filesystem::file_size(segment) / 4 / page_size * page_size;
    std::filesystem::resize_file(segment, quarter);
  }
  const QueryOutcome outcome = paged.Execute(apb1_queries::OneStore(17));
  EXPECT_EQ(outcome.status.code(), StatusCode::kIoError)
      << outcome.status.message();
  EXPECT_FALSE(outcome.aggregate.has_value());
  EXPECT_FALSE(outcome.table.has_value());
  EXPECT_GE(outcome.io_errors, 1);
}

// ---------------------------------------------------------------------------
// On-disk format

TEST(SegmentFormatTest, HeadersAndGeometryMatchTheSpec) {
  TempDir dir;
  const MiniWarehouse wh = MakePaged(2, Opts(dir.path()));
  const storage::SegmentStore& store = *wh.paged_store();
  EXPECT_EQ(store.num_shards(), 2);
  EXPECT_EQ(store.row_count(), wh.row_count());
  EXPECT_EQ(store.page_size(), wh.schema().physical().page_size_bytes);
  EXPECT_EQ(store.tuples_per_page(), wh.schema().physical().TuplesPerPage());
  EXPECT_TRUE(store.has_summaries());
  // dims + units + dollars + the two prefix-sum columns
  EXPECT_EQ(store.num_columns(), wh.schema().num_dimensions() + 4);
  for (int s = 0; s < store.num_shards(); ++s) {
    const std::string path = store.SegmentPath(s);
    ASSERT_TRUE(std::filesystem::exists(path));
    const auto size =
        static_cast<std::int64_t>(std::filesystem::file_size(path));
    EXPECT_EQ(size % store.page_size(), 0) << "page-aligned";
    EXPECT_EQ(size, store.SegmentPages(s) * store.page_size());

    std::ifstream in(path, std::ios::binary);
    char magic[8] = {};
    in.read(magic, 8);
    EXPECT_EQ(std::string(magic, 8), std::string("MDWSEG1\0", 8));
    std::uint32_t version = 0;
    std::uint32_t endian_tag = 0;
    in.read(reinterpret_cast<char*>(&version), 4);
    in.read(reinterpret_cast<char*>(&endian_tag), 4);
    EXPECT_EQ(version, 2u);
    EXPECT_EQ(endian_tag, 0x01020304u);

    // v2 layout: [header | checksum block | data pages]. The checksum
    // block holds one CRC-32C (4 bytes) per data page, page-padded.
    const std::int64_t checksum_pages = store.ChecksumPages(s);
    const std::int64_t first_data = store.FirstDataPage(s);
    const std::int64_t data_pages = store.SegmentPages(s) - first_data;
    EXPECT_GT(checksum_pages, 0);
    EXPECT_GT(first_data, checksum_pages);  // header pages precede
    EXPECT_EQ(checksum_pages,
              (data_pages * 4 + store.page_size() - 1) / store.page_size());
  }
}

TEST(SegmentFormatTest, V1SegmentsAreDetectedAsStaleAndRewritten) {
  TempDir dir;
  std::string segment;
  {
    const MiniWarehouse first = MakePaged(2, Opts(dir.path()));
    segment = first.paged_store()->SegmentPath(0);
  }
  {
    // Rewind the version field (offset 8) to 1: the file now claims the
    // old checksum-less format. The probe must say so by name instead of
    // complaining about the size, and rewrite the segment.
    std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    const std::uint32_t old_version = 1;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&old_version), 4);
  }
  const MiniWarehouse second = MakePaged(2, Opts(dir.path()));
  EXPECT_FALSE(second.paged_store()->reused());
  EXPECT_NE(second.paged_store()->validation_error().find("stale"),
            std::string::npos)
      << second.paged_store()->validation_error();
  const MiniWarehouse ram = MakeRam(2);
  EXPECT_EQ(ram.ExecuteFullScan(apb1_queries::OneMonth(5)),
            second.ExecuteFullScan(apb1_queries::OneMonth(5)));
}

TEST(SegmentFormatTest, OnDiskDataCorruptionIsCaughtByPageChecksums) {
  // Damage every data page of one shard at rest. The header still
  // validates, so the store reuses the segment — but the first query that
  // pins a damaged page gets a typed kCorruption outcome instead of a
  // silently wrong aggregate, and the process stays alive.
  TempDir dir;
  std::string segment;
  std::int64_t first_data = 0, total = 0, page_size = 0;
  {
    const MiniWarehouse first = MakePaged(1, Opts(dir.path()));
    segment = first.paged_store()->SegmentPath(0);
    first_data = first.paged_store()->FirstDataPage(0);
    total = first.paged_store()->SegmentPages(0);
    page_size = first.paged_store()->page_size();
  }
  {
    std::fstream f(segment, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    for (std::int64_t p = first_data; p < total; ++p) {
      f.seekg(p * page_size);
      char byte = 0;
      f.read(&byte, 1);
      byte = static_cast<char>(byte ^ 0x5a);
      f.seekp(p * page_size);
      f.write(&byte, 1);
    }
  }
  const Warehouse damaged = MakeFacade(1, /*workers=*/1, dir.path());
  ASSERT_TRUE(damaged.materialized()->paged_store()->reused());
  for (const StarQuery& q : QuerySweep()) {
    const QueryOutcome outcome = damaged.Execute(q);
    ASSERT_FALSE(outcome.status.ok()) << q.name();
    EXPECT_EQ(outcome.status.code(), StatusCode::kCorruption) << q.name();
    EXPECT_FALSE(outcome.aggregate.has_value()) << q.name();
    EXPECT_GT(outcome.checksum_failures, 0) << q.name();
    EXPECT_EQ(outcome.io_errors, 0) << q.name();
  }
}

// ---------------------------------------------------------------------------
// Buffer-pool behaviour under execution

TEST(PagedStorageTest, ServesTheDatasetThroughAPoolSmallerThanTheWorkingSet) {
  TempDir dir;
  const Warehouse ram = MakeFacade(4, /*workers=*/1);
  const Warehouse paged =
      MakeFacade(4, /*workers=*/1, dir.path(), /*pool_pages=*/16);
  for (const StarQuery& q : QuerySweep()) {
    ExpectLogicalParity(ram.Execute(q), paged.Execute(q));
  }
  // A 16-page pool cannot hold the measure columns; pages churned.
  EXPECT_GT(paged.materialized()->paged_store()->pool().stats().evictions, 0);
}

TEST(PagedStorageTest, TooSmallPoolFailsTheQueryTyped) {
  // A grouped residual scan pins a page per measure cursor (and one for
  // the group key), so one lane needs more than two frames: the query
  // fails typed instead of aborting the process.
  const std::string sql =
      "SELECT SUM(UnitsSold) FROM tiny_sales WHERE customer.store = 3 "
      "GROUP BY product.group";
  TempDir dir;
  const Warehouse tiny =
      MakeFacade(2, /*workers=*/1, dir.path(), /*pool_pages=*/2);
  const StatusOr<QueryOutcome> failed = tiny.ExecuteSql(sql);
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  EXPECT_EQ(failed->status.code(), StatusCode::kIoError)
      << failed->status.ToString();
  EXPECT_FALSE(failed->aggregate.has_value());
  EXPECT_FALSE(failed->table.has_value());

  // The default pool answers exactly what the RAM store answers.
  TempDir dir2;
  const StatusOr<QueryOutcome> ram = MakeFacade(2, 1).ExecuteSql(sql);
  const StatusOr<QueryOutcome> paged =
      MakeFacade(2, 1, dir2.path()).ExecuteSql(sql);
  ASSERT_TRUE(ram.ok() && paged.ok());
  ASSERT_TRUE(paged->status.ok()) << paged->status.ToString();
  ASSERT_TRUE(ram->table.has_value() && paged->table.has_value());
  EXPECT_EQ(*paged->table, *ram->table);
  EXPECT_EQ(*paged->aggregate, *ram->aggregate);
}

TEST(PagedStorageTest, ThreePagePoolAnswersAGroupedScan) {
  // A cursor unpins its page before pinning the next, so the grouped
  // residual scan's three cursors (units, dollars, group key) run in
  // three frames on one lane.
  const std::string sql =
      "SELECT SUM(UnitsSold) FROM tiny_sales WHERE customer.store = 3 "
      "GROUP BY product.group";
  TempDir dir;
  const StatusOr<QueryOutcome> paged =
      MakeFacade(2, /*workers=*/1, dir.path(), /*pool_pages=*/3)
          .ExecuteSql(sql);
  const StatusOr<QueryOutcome> ram = MakeFacade(2, 1).ExecuteSql(sql);
  ASSERT_TRUE(ram.ok() && paged.ok());
  ASSERT_TRUE(paged->status.ok()) << paged->status.ToString();
  ASSERT_TRUE(ram->table.has_value() && paged->table.has_value());
  EXPECT_EQ(*paged->table, *ram->table);
  EXPECT_EQ(*paged->aggregate, *ram->aggregate);
}

TEST(PagedStorageTest, PoolWithoutFramesFailsEveryQueryTyped) {
  // storage_pool_pages below 1 builds a pool without frames: each
  // statement that reads a page fails with kInvalidArgument naming the
  // setting instead of aborting at construction.
  const std::vector<std::string> statements = {
      "SELECT SUM(UnitsSold) FROM tiny_sales WHERE customer.store = 3 "
      "GROUP BY product.group",
      "SELECT SUM(UnitsSold) FROM tiny_sales WHERE time.month = 5",
      "SELECT COUNT(*) FROM tiny_sales WHERE customer.store = 3",
  };
  for (const std::int64_t pool_pages : {0, -1}) {
    TempDir dir;
    const Warehouse paged =
        MakeFacade(2, /*workers=*/1, dir.path(), pool_pages);
    for (const std::string& sql : statements) {
      const StatusOr<QueryOutcome> outcome = paged.ExecuteSql(sql);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      EXPECT_EQ(outcome->status.code(), StatusCode::kInvalidArgument)
          << pool_pages << ": " << sql << ": " << outcome->status.ToString();
      EXPECT_NE(outcome->status.message().find("storage_pool_pages"),
                std::string::npos)
          << outcome->status.ToString();
      EXPECT_FALSE(outcome->aggregate.has_value()) << sql;
      EXPECT_FALSE(outcome->table.has_value()) << sql;
    }
  }
}

TEST(PagedStorageTest, QueryIoCountersMatchThePoolAndSumOverShards) {
  TempDir dir;
  const Warehouse paged = MakeFacade(4, /*workers=*/1, dir.path());
  const storage::BufferPool& pool =
      paged.materialized()->paged_store()->pool();
  for (const StarQuery& q : QuerySweep()) {
    const storage::PoolStats before = pool.stats();
    const QueryOutcome outcome = paged.Execute(q);
    const storage::PoolStats after = pool.stats();
    // The query's own attribution is exactly the pool's counter delta
    // (serial execution: no other reader touches the pool).
    EXPECT_EQ(outcome.pages_read, after.pages_read - before.pages_read)
        << q.name();
    EXPECT_EQ(outcome.buffer_hits, after.hits - before.hits) << q.name();
    EXPECT_EQ(outcome.bytes_read, after.bytes_read - before.bytes_read)
        << q.name();
    // And the per-shard split sums back to the totals.
    ASSERT_EQ(outcome.shards.size(), 4u);
    std::int64_t pages = 0, hits = 0, bytes = 0;
    for (const auto& shard : outcome.shards) {
      pages += shard.pages_read;
      hits += shard.buffer_hits;
      bytes += shard.bytes_read;
    }
    EXPECT_EQ(pages, outcome.pages_read) << q.name();
    EXPECT_EQ(hits, outcome.buffer_hits) << q.name();
    EXPECT_EQ(bytes, outcome.bytes_read) << q.name();
  }
}

TEST(PagedStorageTest, WarmPoolServesRepeatQueriesWithoutFaults) {
  TempDir dir;
  const Warehouse paged = MakeFacade(1, /*workers=*/1, dir.path(),
                                     /*pool_pages=*/4096, /*summaries=*/true,
                                     /*prefetch=*/false);
  for (const StarQuery& q : QuerySweep()) {
    const QueryOutcome cold = paged.Execute(q);
    const QueryOutcome warm = paged.Execute(q);
    EXPECT_EQ(*cold.aggregate, *warm.aggregate);
    EXPECT_EQ(warm.pages_read, 0) << q.name();
    // Serially and without prefetch, the warm run repeats the exact pin
    // sequence of the cold run, now all served from cache.
    EXPECT_EQ(warm.buffer_hits, cold.pages_read + cold.buffer_hits) << q.name();
  }
}

// ---------------------------------------------------------------------------
// pages_read vs the logical page model

TEST(PagedStorageTest, ResidualPagesReadMatchPagedLayoutPrediction) {
  // Summaries off: every fragment is residual, so a serial cold-pool
  // execution faults exactly the pages holding hit rows, once per
  // measure column. PagedLayout counts those pages on an in-RAM twin
  // (same clustered physical order; the file-backed facts() is gone by
  // design), so prediction and measurement must agree exactly.
  TempDir dir;
  const MiniWarehouse twin = MakeRam(1, /*seed=*/42, /*summaries=*/false);
  const PagedLayout layout(&twin, LayoutOrder::kGeneration);
  for (const StarQuery& q : QuerySweep()) {
    const Warehouse cold = MakeFacade(1, /*workers=*/1, dir.path(),
                                      /*pool_pages=*/4096,
                                      /*summaries=*/false);
    const QueryOutcome outcome = cold.Execute(q);
    const PagedLayout::ScanStats stats = layout.Analyze(q);
    EXPECT_EQ(outcome.pages_read, 2 * stats.pages_with_hits) << q.name();
    EXPECT_EQ(outcome.rows_summarized, 0) << q.name();
  }
}

TEST(PagedStorageTest, CoveredQueriesAnswerFromFewSummaryPages) {
  // Summaries on: hierarchy-aligned queries never scan rows; each
  // covered run folds two prefix-sum boundaries per measure column, so
  // it costs at most 4 page faults per summarized fragment — instead of
  // the pages_with_hits data pages a residual scan would fault.
  TempDir dir;
  for (const StarQuery& q : {apb1_queries::OneMonthOneGroup(3, 7),
                             apb1_queries::OneMonth(5),
                             apb1_queries::OneQuarter(2)}) {
    const Warehouse cold = MakeFacade(1, /*workers=*/1, dir.path());
    const QueryOutcome outcome = cold.Execute(q);
    EXPECT_EQ(outcome.rows_scanned, 0) << q.name();
    EXPECT_GT(outcome.rows_summarized, 0) << q.name();
    EXPECT_EQ(outcome.fragments_summarized, outcome.fragments_processed)
        << q.name();
    EXPECT_GT(outcome.pages_read, 0) << q.name();
    EXPECT_LE(outcome.pages_read, 4 * outcome.fragments_summarized) << q.name();
  }
  // The single-fragment aligned query is the paper's best case: the
  // whole answer comes from at most four pages.
  const Warehouse cold = MakeFacade(1, /*workers=*/1, dir.path());
  const QueryOutcome best = cold.Execute(apb1_queries::OneMonthOneGroup(3, 7));
  EXPECT_LE(best.pages_read, 4);
}

}  // namespace
}  // namespace mdw
