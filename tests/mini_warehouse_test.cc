#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "core/mini_warehouse.h"
#include "fragment/query_planner.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

// The shared warehouse is expensive to build; construct it once. It is
// clustered under {time::month, product::group} with summaries off, so
// every selected fragment is scanned and rows_scanned counts its rows.
class MiniWarehouseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    warehouse_ = new MiniWarehouse(MakeTinyApb1Schema(), /*seed=*/42,
                                   {{kApb1Time, 2}, {kApb1Product, 3}},
                                   /*enable_summaries=*/false);
  }
  static void TearDownTestSuite() {
    delete warehouse_;
    warehouse_ = nullptr;
  }

  /// MDHF execution under the store's own fragmentation.
  static MiniWarehouse::MdhfExecution Mdhf(const StarQuery& q) {
    const QueryPlanner planner(&warehouse_->schema(),
                               warehouse_->cluster_fragmentation());
    return warehouse_->ExecuteWithPlan(q, planner.Plan(q));
  }

  static MiniWarehouse* warehouse_;
};

MiniWarehouse* MiniWarehouseTest::warehouse_ = nullptr;

TEST_F(MiniWarehouseTest, PopulationMatchesDensity) {
  const auto& schema = warehouse_->schema();
  const double expected =
      schema.density() * static_cast<double>(schema.MaxFactCount());
  EXPECT_NEAR(static_cast<double>(warehouse_->row_count()), expected,
              expected * 0.05);
  EXPECT_GT(warehouse_->row_count(), 0);
}

TEST_F(MiniWarehouseTest, ColumnsWithinLeafCardinalities) {
  const auto& schema = warehouse_->schema();
  for (DimId d = 0; d < schema.num_dimensions(); ++d) {
    const auto card = schema.dimension(d).hierarchy().LeafCardinality();
    for (const auto v :
         warehouse_->facts().columns[static_cast<std::size_t>(d)]) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, card);
    }
  }
}

TEST_F(MiniWarehouseTest, BitmapPathEqualsFullScanSingleDim) {
  const StarQuery q("1MONTH", {{kApb1Time, 2, {5}}});
  EXPECT_EQ(warehouse_->ExecuteWithBitmaps(q),
            warehouse_->ExecuteFullScan(q));
}

TEST_F(MiniWarehouseTest, BitmapPathEqualsFullScanMultiDim) {
  const StarQuery q("1MONTH1GROUP",
                    {{kApb1Time, 2, {3}}, {kApb1Product, 3, {7}}});
  EXPECT_EQ(warehouse_->ExecuteWithBitmaps(q),
            warehouse_->ExecuteFullScan(q));
}

TEST_F(MiniWarehouseTest, BitmapPathEqualsFullScanInList) {
  const StarQuery q("2STORES", {{kApb1Customer, 1, {3, 17}}});
  EXPECT_EQ(warehouse_->ExecuteWithBitmaps(q),
            warehouse_->ExecuteFullScan(q));
}

TEST_F(MiniWarehouseTest, EmptyPredicateQueryAggregatesEverything) {
  const StarQuery q("ALL", {});
  const auto full = warehouse_->ExecuteFullScan(q);
  EXPECT_EQ(full.rows, warehouse_->row_count());
  EXPECT_EQ(warehouse_->ExecuteWithBitmaps(q), full);
}

TEST_F(MiniWarehouseTest, MdhfConfinesRowsScanned) {
  // 1MONTH1GROUP under {time::month, product::group}: IOC1-opt — the
  // fragment contains exactly the matching rows.
  const StarQuery q("1MONTH1GROUP",
                    {{kApb1Time, 2, {3}}, {kApb1Product, 3, {7}}});
  const auto exec = Mdhf(q);
  EXPECT_EQ(exec.result, warehouse_->ExecuteFullScan(q));
  EXPECT_EQ(exec.io_class, IoClass::kIoc1Opt);
  EXPECT_EQ(exec.fragments_processed, 1);
  // Every scanned row is a hit: no bitmap filtering needed.
  EXPECT_EQ(exec.rows_scanned, exec.result.rows);
  EXPECT_EQ(exec.bitmaps_read, 0);
}

TEST_F(MiniWarehouseTest, MdhfQ2UsesSuffixBitmaps) {
  // Tiny product: 96 codes, 24 groups -> 4 codes per group; code 30 is in
  // group 7.
  const StarQuery q("1CODE1MONTH",
                    {{kApb1Product, 5, {30}}, {kApb1Time, 2, {3}}});
  const auto exec = Mdhf(q);
  EXPECT_EQ(exec.result, warehouse_->ExecuteFullScan(q));
  EXPECT_EQ(exec.query_class, QueryClass::kQ2);
  EXPECT_EQ(exec.fragments_processed, 1);
  EXPECT_GT(exec.bitmaps_read, 0);
  // Only a subset of the fragment's rows match the code.
  EXPECT_GT(exec.rows_scanned, exec.result.rows);
}

TEST_F(MiniWarehouseTest, MdhfUnsupportedStillCorrect) {
  const StarQuery q("1STORE", {{kApb1Customer, 1, {17}}});
  const auto exec = Mdhf(q);
  EXPECT_EQ(exec.result, warehouse_->ExecuteFullScan(q));
  EXPECT_EQ(exec.io_class, IoClass::kIoc2NoSupp);
  // All fragments processed; all rows scanned.
  EXPECT_EQ(exec.rows_scanned, warehouse_->row_count());
}

TEST_F(MiniWarehouseTest, MdhfInListAcrossGroupsStaysCorrect) {
  // Codes 2 and 50 belong to different groups: the suffix-bitmap shortcut
  // must not be applied (regression test for cross-parent aliasing).
  const StarQuery q("2CODES", {{kApb1Product, 5, {2, 50}}});
  const auto exec = Mdhf(q);
  EXPECT_EQ(exec.result, warehouse_->ExecuteFullScan(q));
}

TEST_F(MiniWarehouseTest, MeasuresArePositive) {
  const StarQuery q("ALL", {});
  const auto r = warehouse_->ExecuteFullScan(q);
  EXPECT_GT(r.units_sold, r.rows);          // each row sells >= 1 unit
  EXPECT_GT(r.dollar_sales_cents, r.rows);  // each row >= 100 cents
}

TEST_F(MiniWarehouseTest, PlanOfAnotherFragmentationAborts) {
  // Every plan must match the store's clustering: a plan derived under
  // {time::quarter} cannot run on the month x group layout.
  const Fragmentation quarter(&warehouse_->schema(), {{kApb1Time, 1}});
  const QueryPlanner planner(&warehouse_->schema(), &quarter);
  const StarQuery q("1QUARTER", {{kApb1Time, 1, {2}}});
  const QueryPlan plan = planner.Plan(q);
  EXPECT_DEATH(warehouse_->ExecuteWithPlan(q, plan),
               "does not match this warehouse's clustering");
}

// ---- Exhaustive cross-validation sweep ----
// For every fragmentation shape and every paper query type, the MDHF
// execution on a store clustered under that fragmentation must equal the
// full scan. This is the central end-to-end property of the
// reproduction: fragment confinement + hierarchical encoded bitmap
// evaluation never changes query results.

struct SweepCase {
  const char* frag_label;
  std::vector<FragAttr> attrs;
};

class MdhfEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 public:
  static const std::vector<SweepCase>& Fragmentations() {
    static const std::vector<SweepCase>* cases = new std::vector<SweepCase>{
        {"none", {}},
        {"month", {{kApb1Time, 2}}},
        {"quarter", {{kApb1Time, 1}}},
        {"group", {{kApb1Product, 3}}},
        {"code", {{kApb1Product, 5}}},
        {"store", {{kApb1Customer, 1}}},
        {"retailer", {{kApb1Customer, 0}}},
        {"channel", {{kApb1Channel, 0}}},
        {"month_group", {{kApb1Time, 2}, {kApb1Product, 3}}},
        {"month_code", {{kApb1Time, 2}, {kApb1Product, 5}}},
        {"quarter_family", {{kApb1Time, 1}, {kApb1Product, 2}}},
        {"month_group_store",
         {{kApb1Time, 2}, {kApb1Product, 3}, {kApb1Customer, 1}}},
        {"all_four",
         {{kApb1Time, 1},
          {kApb1Product, 2},
          {kApb1Customer, 0},
          {kApb1Channel, 0}}},
    };
    return *cases;
  }

  static const std::vector<StarQuery>& Queries() {
    static const std::vector<StarQuery>* queries =
        new std::vector<StarQuery>{
            StarQuery("1MONTH", {{kApb1Time, 2, {5}}}),
            StarQuery("1QUARTER", {{kApb1Time, 1, {2}}}),
            StarQuery("1YEAR", {{kApb1Time, 0, {0}}}),
            StarQuery("1GROUP", {{kApb1Product, 3, {7}}}),
            StarQuery("1CODE", {{kApb1Product, 5, {30}}}),
            StarQuery("1DIVISION", {{kApb1Product, 0, {1}}}),
            StarQuery("1STORE", {{kApb1Customer, 1, {17}}}),
            StarQuery("1RETAILER", {{kApb1Customer, 0, {3}}}),
            StarQuery("1CHANNEL", {{kApb1Channel, 0, {2}}}),
            StarQuery("1MONTH1GROUP",
                      {{kApb1Time, 2, {3}}, {kApb1Product, 3, {7}}}),
            StarQuery("1CODE1QUARTER",
                      {{kApb1Product, 5, {30}}, {kApb1Time, 1, {2}}}),
            StarQuery("1GROUP1STORE",
                      {{kApb1Product, 3, {7}}, {kApb1Customer, 1, {17}}}),
            StarQuery("3DIM", {{kApb1Product, 2, {5}},
                               {kApb1Time, 1, {1}},
                               {kApb1Channel, 0, {1}}}),
            StarQuery("IN_LIST", {{kApb1Product, 5, {1, 2, 50}},
                                  {kApb1Time, 2, {0, 6}}}),
        };
    return *queries;
  }
};

TEST_P(MdhfEquivalenceSweep, MdhfEqualsFullScan) {
  const auto [frag_index, query_index] = GetParam();
  const auto& sweep_case =
      Fragmentations()[static_cast<std::size_t>(frag_index)];
  const auto& query = Queries()[static_cast<std::size_t>(query_index)];
  // One store per fragmentation, clustered under it.
  static std::vector<std::unique_ptr<MiniWarehouse>> stores(
      Fragmentations().size());
  auto& warehouse = stores[static_cast<std::size_t>(frag_index)];
  if (warehouse == nullptr) {
    warehouse = std::make_unique<MiniWarehouse>(MakeTinyApb1Schema(),
                                                /*seed=*/42, sweep_case.attrs);
  }
  const QueryPlanner planner(&warehouse->schema(),
                             warehouse->cluster_fragmentation());
  const auto exec = warehouse->ExecuteWithPlan(query, planner.Plan(query));
  const auto expected = warehouse->ExecuteFullScan(query);
  EXPECT_EQ(exec.result, expected)
      << "fragmentation " << sweep_case.frag_label << " query "
      << query.name();
  // The bitmap path must agree as well.
  EXPECT_EQ(warehouse->ExecuteWithBitmaps(query), expected);
}

using SweepParam = std::tuple<int, int>;

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto [f, q] = info.param;
  return MdhfEquivalenceSweep::Fragmentations()[static_cast<std::size_t>(f)]
             .frag_label +
         std::string("_") +
         MdhfEquivalenceSweep::Queries()[static_cast<std::size_t>(q)].name();
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, MdhfEquivalenceSweep,
    ::testing::Combine(::testing::Range(0, 13), ::testing::Range(0, 14)),
    SweepName);

// ---- The block filter kernel at its edges ----
// The scan kernel evaluates a chunk's bitmap filters one block of 64
// words (4096 rows) at a time from the chunk's first row, so a chunk may
// start off a 64-row boundary, span several blocks and end in a ragged
// one, and its last window may reach the end of the bitmaps. These
// stores (tiny schema, seed 42, summaries off so every selected fragment
// is scanned) are clustered under {time::quarter, customer::retailer}:
// 32 fragments of about 1,080 rows, id quarter * 8 + retailer, so
// fragment 31 (quarter 3, retailer 7) holds the table's last row. A plan
// over every fragment scans the table as one run, which the executor
// cuts into four chunks per lane; at one or two lanes each is longer
// than two blocks resp. one. Plans over one retailer's fragments scan
// one chunk per fragment. Every shape runs grouped and ungrouped, at one
// and two workers, on the RAM and the file-backed store, against the
// row-by-row reference scans.

class BlockKernelTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  static std::vector<FragAttr> QuarterRetailer() {
    return {{kApb1Time, 1}, {kApb1Customer, 0}};
  }

  static void SetUpTestSuite() {
    ram_ = new MiniWarehouse(MakeTinyApb1Schema(), /*seed=*/42,
                             QuarterRetailer(), /*enable_summaries=*/false);
    const char* base = std::getenv("TEST_TMPDIR");
    dir_ = new std::string(std::string(base != nullptr ? base : "/tmp") +
                           "/mdw_kernel_XXXXXX");
    ASSERT_NE(::mkdtemp(dir_->data()), nullptr);
    storage::StoreOptions storage;
    storage.path = *dir_;
    paged_ = new MiniWarehouse(MakeTinyApb1Schema(), /*seed=*/42,
                               QuarterRetailer(), /*enable_summaries=*/false,
                               /*num_shards=*/1, {}, storage);
  }
  static void TearDownTestSuite() {
    delete ram_;
    delete paged_;
    ram_ = paged_ = nullptr;
    std::error_code ec;
    std::filesystem::remove_all(*dir_, ec);
    delete dir_;
    dir_ = nullptr;
  }

  static std::vector<StarQuery> Shapes() {
    // Retailer r owns stores 5r .. 5r + 4; quarter q owns months
    // 3q .. 3q + 2.
    return {
        // Suffix-only IN-list and single value (same ancestor, encoded):
        // retailer 7's four fragments, the last one ending the table.
        StarQuery("STORES_OF_RETAILER_7", {{kApb1Customer, 1, {36, 38}}}),
        StarQuery("STORE_37", {{kApb1Customer, 1, {37}}}),
        // Stores under two retailers: the full prefix is read.
        StarQuery("STORES_OF_TWO_RETAILERS", {{kApb1Customer, 1, {3, 36}}}),
        // Same ancestor and not, on the simple TIME index.
        StarQuery("MONTHS_OF_QUARTER_3", {{kApb1Time, 2, {10, 11}}}),
        StarQuery("MONTHS_OF_TWO_QUARTERS", {{kApb1Time, 2, {2, 3}}}),
        // Whole-table runs: an encoded and a simple dimension outside the
        // fragmentation, and two accesses ANDed.
        StarQuery("CODES", {{kApb1Product, 5, {5, 40, 90}}}),
        StarQuery("CHANNEL_1", {{kApb1Channel, 0, {1}}}),
        StarQuery("CLASS_7_TWO_CHANNELS",
                  {{kApb1Product, 4, {7}}, {kApb1Channel, 0, {0, 2}}}),
        // One fragment, the table's last, under two accesses.
        StarQuery("STORE_37_MONTH_11",
                  {{kApb1Customer, 1, {37}}, {kApb1Time, 2, {11}}}),
    };
  }

  static MiniWarehouse* ram_;
  static MiniWarehouse* paged_;
  static std::string* dir_;
};

MiniWarehouse* BlockKernelTest::ram_ = nullptr;
MiniWarehouse* BlockKernelTest::paged_ = nullptr;
std::string* BlockKernelTest::dir_ = nullptr;

TEST_P(BlockKernelTest, FiltersMatchTheReferenceScans) {
  const auto [file_backed, workers] = GetParam();
  const MiniWarehouse& store = file_backed ? *paged_ : *ram_;
  ASSERT_EQ(store.file_backed(), file_backed);

  // The layout has the edge shapes the comment above names.
  const std::int64_t rows = store.row_count();
  EXPECT_GT(rows, 8 * 4096);  // whole-table chunks exceed one block
  EXPECT_NE(rows % 64, 0);
  EXPECT_EQ(store.FragmentRows(31).second, rows);
  int off_boundary = 0;
  for (const std::int64_t quarter : {0, 1, 2, 3}) {
    if (store.FragmentRows(quarter * 8 + 7).first % 64 != 0) ++off_boundary;
  }
  EXPECT_GT(off_boundary, 0);

  const std::unique_ptr<ThreadPool> pool =
      workers > 1 ? std::make_unique<ThreadPool>(workers - 1) : nullptr;
  const QueryPlanner planner(&store.schema(), store.cluster_fragmentation());
  for (const StarQuery& shape : Shapes()) {
    const auto exec =
        store.ExecuteWithPlan(shape, planner.Plan(shape), pool.get());
    ASSERT_TRUE(exec.status.ok()) << shape.name();
    EXPECT_EQ(exec.result, store.ExecuteFullScan(shape)) << shape.name();
    EXPECT_GT(exec.result.rows, 0) << shape.name();
    EXPECT_GT(exec.rows_scanned, exec.result.rows) << shape.name();
    for (const GroupBy by :
         {GroupBy{kApb1Product, 4}, GroupBy{kApb1Channel, 0}}) {
      const StarQuery grouped = shape.WithGroupBy(by);
      const auto gexec =
          store.ExecuteWithPlan(grouped, planner.Plan(grouped), pool.get());
      ASSERT_TRUE(gexec.status.ok()) << grouped.name();
      EXPECT_EQ(gexec.result, exec.result) << grouped.name();
      EXPECT_EQ(gexec.groups, store.ExecuteFullScanGrouped(grouped))
          << grouped.name() << " by dim " << by.dim;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    StoresByWorkers, BlockKernelTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "paged" : "ram") + "_w" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mdw
