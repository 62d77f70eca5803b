// Coverage-aware aggregation tests:
//  - property: the planner's per-fragment coverage classification agrees
//    with an independent brute force over the hierarchy value space, and
//    covered fragments' rows all satisfy every predicate (data-level
//    soundness), across seeds x the APB-1 query sweep;
//  - parity: full scan == bitmaps == MDHF(serial) == MDHF(parallel) ==
//    summaries-off at workers {1, 2, 8};
//  - counters: rows_scanned / rows_summarized / fragments_summarized
//    partition the processed rows and fragments exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "core/mini_warehouse.h"
#include "core/warehouse.h"
#include "fragment/query_planner.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

// The parallel_execution_test sweep plus coverage-specific shapes: IN
// lists that cover a fragmentation-level value completely (all 4 codes of
// a group; all 3 months of a quarter) and ones that straddle coverage
// (one fragment covered, its neighbour residual).
std::vector<StarQuery> QuerySweep() {
  std::vector<StarQuery> queries;
  for (std::int64_t month : {0, 3, 11}) {
    for (std::int64_t group : {0, 7, 23}) {
      queries.push_back(apb1_queries::OneMonthOneGroup(month, group));
    }
  }
  for (std::int64_t month : {1, 5}) {
    queries.push_back(apb1_queries::OneMonth(month));
  }
  for (std::int64_t code : {0, 30, 95}) {
    queries.push_back(apb1_queries::OneCode(code));
  }
  for (std::int64_t quarter : {0, 2}) {
    queries.push_back(apb1_queries::OneQuarter(quarter));
  }
  queries.push_back(apb1_queries::OneCodeOneMonth(30, 3));
  queries.push_back(apb1_queries::OneCodeOneQuarter(30, 2));
  queries.push_back(apb1_queries::OneStore(17));
  queries.push_back(apb1_queries::OneGroupOneStore(7, 17));
  queries.push_back(StarQuery("IN_LIST", {{kApb1Product, 5, {1, 2, 50}},
                                          {kApb1Time, 2, {0, 6}}}));
  // Tiny schema: 96 codes / 24 groups = 4 codes per group; group 7 is
  // codes 28..31. All four => group 7 fully covered by a CODE predicate.
  queries.push_back(
      StarQuery("ALL_CODES_OF_GROUP", {{kApb1Product, 5, {28, 29, 30, 31}}}));
  // Group 7 covered, group 8 (codes 32..35) only partially => one covered
  // and one residual fragment slice value on the same attribute.
  queries.push_back(StarQuery("COVERED_PLUS_RESIDUAL",
                              {{kApb1Product, 5, {28, 29, 30, 31, 32}}}));
  // IN-list exactly at both fragmentation levels: every selected fragment
  // covered (the aligned multi-fragment shape).
  queries.push_back(StarQuery("MONTHS_IN_LIST_ONE_GROUP",
                              {{kApb1Time, 2, {3, 4, 5}},
                               {kApb1Product, 3, {7}}}));
  // Duplicated IN-list values must not enumerate (and double-count) their
  // fragment twice — the parity checks against the full scan catch it.
  queries.push_back(StarQuery("DUP_IN_LIST", {{kApb1Time, 2, {3, 3}}}));
  queries.push_back(StarQuery("DUP_CODES", {{kApb1Product, 5, {30, 30, 31}}}));
  return queries;
}

// Independent coverage oracle: fragment coordinates `coords` (one value
// per fragmentation attribute) are fully covered iff for EVERY predicate,
// EVERY leaf value consistent with the fragment satisfies it. Leaves of a
// fragmentation dimension are confined to the coordinate's leaf range;
// any other dimension ranges over its whole leaf domain.
bool BruteForceCovered(const StarSchema& schema, const Fragmentation& frag,
                       const std::vector<std::int64_t>& coords,
                       const StarQuery& query) {
  for (const auto& pred : query.predicates()) {
    const auto& h = schema.dimension(pred.dim).hierarchy();
    std::int64_t leaf_first = 0;
    std::int64_t leaf_last = h.LeafCardinality() - 1;
    const int attr_index = frag.IndexOfDim(pred.dim);
    if (attr_index >= 0) {
      std::tie(leaf_first, leaf_last) = h.LeafRange(
          coords[static_cast<std::size_t>(attr_index)],
          frag.attr(attr_index).depth);
    }
    for (std::int64_t leaf = leaf_first; leaf <= leaf_last; ++leaf) {
      const std::int64_t value = h.AncestorOfLeaf(leaf, pred.depth);
      if (std::find(pred.values.begin(), pred.values.end(), value) ==
          pred.values.end()) {
        return false;
      }
    }
  }
  return true;
}

bool RowMatches(const MiniWarehouse& wh, std::int64_t row,
                const StarQuery& query) {
  for (const auto& pred : query.predicates()) {
    const auto& h = wh.schema().dimension(pred.dim).hierarchy();
    const std::int64_t leaf =
        wh.facts().columns[static_cast<std::size_t>(pred.dim)]
                          [static_cast<std::size_t>(row)];
    if (std::find(pred.values.begin(), pred.values.end(),
                  h.AncestorOfLeaf(leaf, pred.depth)) == pred.values.end()) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Property: planner classification == value-space brute force.

class CoverageProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoverageProperty, ClassificationMatchesBruteForce) {
  const MiniWarehouse wh(MakeTinyApb1Schema(), GetParam(), MonthGroup());
  const Fragmentation frag(&wh.schema(), MonthGroup());
  const QueryPlanner planner(&wh.schema(), &frag);
  for (const auto& query : QuerySweep()) {
    const auto plan = planner.Plan(query);
    std::int64_t covered_count = 0;
    plan.ForEachFragment([&](FragId id, bool covered) {
      EXPECT_EQ(covered,
                BruteForceCovered(wh.schema(), frag, frag.CoordsOf(id), query))
          << query.name() << " fragment " << id;
      if (covered) {
        ++covered_count;
        // Data-level soundness: every materialised row of a covered
        // fragment is a hit.
        const auto [begin, end] = wh.FragmentRows(id);
        for (std::int64_t row = begin; row < end; ++row) {
          ASSERT_TRUE(RowMatches(wh, row, query))
              << query.name() << " fragment " << id << " row " << row;
        }
      }
    });
    EXPECT_EQ(covered_count, plan.CoveredFragmentCount()) << query.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverageProperty,
                         ::testing::Values<std::uint64_t>(7, 42, 123),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(CoverageProperty, PlansWithoutCoverageInfoAreAllResidual) {
  // Hand-built plans default to no coverage, so nothing is ever
  // answered from summaries by accident.
  const auto schema = MakeTinyApb1Schema();
  const auto frag =
      std::make_shared<const Fragmentation>(&schema, MonthGroup());
  const QueryPlan plan(frag, {{3}, {7}}, QueryClass::kQ1,
                       IoClass::kIoc1Opt, {}, 1.0 / 288);
  EXPECT_FALSE(plan.coverable());
  EXPECT_EQ(plan.CoveredFragmentCount(), 0);
  plan.ForEachFragment(
      [](FragId, bool covered) { EXPECT_FALSE(covered); });
}

// ---------------------------------------------------------------------------
// Parity: all execution paths agree with the full scan, with summaries on
// and off, serial and parallel.

class SummaryParity : public ::testing::TestWithParam<
                          std::tuple<std::uint64_t /*seed*/, int /*workers*/>> {
};

TEST_P(SummaryParity, FivePathsAgree) {
  const auto [seed, workers] = GetParam();
  const Warehouse with({.schema = MakeTinyApb1Schema(),
                        .fragmentation = MonthGroup(),
                        .backend = BackendKind::kMaterialized,
                        .seed = seed,
                        .num_workers = workers});
  const Warehouse without({.schema = MakeTinyApb1Schema(),
                           .fragmentation = MonthGroup(),
                           .backend = BackendKind::kMaterialized,
                           .seed = seed,
                           .num_workers = workers,
                           .enable_fragment_summaries = false});
  const MiniWarehouse& mini = *with.materialized();
  ASSERT_TRUE(mini.summaries_enabled());
  ASSERT_FALSE(without.materialized()->summaries_enabled());
  for (const auto& query : QuerySweep()) {
    const auto expected = mini.ExecuteFullScan(query);
    EXPECT_EQ(mini.ExecuteWithBitmaps(query), expected) << query.name();
    const auto on = with.Execute(query);
    const auto off = without.Execute(query);
    ASSERT_TRUE(on.aggregate.has_value()) << query.name();
    ASSERT_TRUE(off.aggregate.has_value()) << query.name();
    EXPECT_EQ(*on.aggregate, expected)
        << query.name() << " seed=" << seed << " workers=" << workers;
    EXPECT_EQ(*off.aggregate, expected)
        << query.name() << " seed=" << seed << " workers=" << workers;
    // Counter partition: what the summary path stops scanning it must
    // account for as summarized rows, exactly.
    EXPECT_EQ(on.rows_scanned + on.rows_summarized, off.rows_scanned)
        << query.name();
    EXPECT_EQ(off.rows_summarized, 0) << query.name();
    EXPECT_EQ(off.fragments_summarized, 0) << query.name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByWorkers, SummaryParity,
    ::testing::Combine(::testing::Values<std::uint64_t>(7, 42, 123),
                       ::testing::Values(1, 2, 8)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SummaryDeterminismTest, IdenticalExecutionRecordAtAnyWorkerCount) {
  // The ENTIRE record — aggregates, rows_scanned, rows_summarized,
  // fragments_summarized — is bit-identical serial vs parallel.
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42, MonthGroup());
  const Fragmentation frag(&wh.schema(), MonthGroup());
  const QueryPlanner planner(&wh.schema(), &frag);
  const ThreadPool pool2(2), pool8(8);
  for (const auto& query : QuerySweep()) {
    const auto plan = planner.Plan(query);
    const auto serial = wh.ExecuteWithPlan(query, plan);
    EXPECT_EQ(wh.ExecuteWithPlan(query, plan, &pool2), serial)
        << query.name();
    EXPECT_EQ(wh.ExecuteWithPlan(query, plan, &pool8), serial)
        << query.name();
  }
}

// ---------------------------------------------------------------------------
// Counter semantics on aligned and straddling queries.

TEST(SummaryCountersTest, AlignedQueryScansNothing) {
  const Warehouse wh({.schema = MakeTinyApb1Schema(),
                      .fragmentation = MonthGroup(),
                      .backend = BackendKind::kMaterialized,
                      .seed = 42});
  for (const auto& query : {apb1_queries::OneMonth(3),
                            apb1_queries::OneMonthOneGroup(3, 7),
                            apb1_queries::OneQuarter(2)}) {
    const auto outcome = wh.Execute(query);
    EXPECT_EQ(outcome.rows_scanned, 0) << query.name();
    EXPECT_EQ(outcome.fragments_summarized, outcome.fragments_processed)
        << query.name();
    EXPECT_EQ(outcome.rows_summarized, outcome.aggregate->rows)
        << query.name();
  }
}

TEST(SummaryCountersTest, StraddlingInListSplitsCoveredAndResidual) {
  const Warehouse wh({.schema = MakeTinyApb1Schema(),
                      .fragmentation = MonthGroup(),
                      .backend = BackendKind::kMaterialized,
                      .seed = 42});
  // Codes 28..31 cover group 7 entirely; code 32 selects group 8 as a
  // residual fragment (per month: 12 covered + 12 residual fragments).
  const StarQuery query("COVERED_PLUS_RESIDUAL",
                        {{kApb1Product, 5, {28, 29, 30, 31, 32}}});
  const auto outcome = wh.Execute(query);
  EXPECT_EQ(outcome.fragments_processed, 24);
  EXPECT_EQ(outcome.fragments_summarized, 12);
  EXPECT_GT(outcome.rows_scanned, 0);
  EXPECT_GT(outcome.rows_summarized, 0);
}

TEST(SummaryCountersTest, DegenerateClusteringSummarizesPredicateFreeQuery) {
  // Zero-attribute fragmentation: the single fragment is the whole table.
  // A predicate-free query is fully covered and answered entirely from
  // the prefix sums; any predicate poisons coverage (non-frag dimension)
  // and falls back to the scan.
  const MiniWarehouse wh(MakeTinyApb1Schema(), /*seed=*/42, {});
  ASSERT_TRUE(wh.summaries_enabled());
  const Fragmentation frag(&wh.schema(), {});
  const QueryPlanner planner(&wh.schema(), &frag);

  const StarQuery everything("EVERYTHING", {});
  const auto covered = wh.ExecuteWithPlan(everything, planner.Plan(everything));
  EXPECT_EQ(covered.result, wh.ExecuteFullScan(everything));
  EXPECT_EQ(covered.rows_scanned, 0);
  EXPECT_EQ(covered.rows_summarized, wh.row_count());
  EXPECT_EQ(covered.fragments_summarized, 1);

  const StarQuery month = apb1_queries::OneMonth(3);
  const auto filtered = wh.ExecuteWithPlan(month, planner.Plan(month));
  EXPECT_EQ(filtered.fragments_summarized, 0);
  EXPECT_GT(filtered.rows_scanned, 0);
}

TEST(SummaryCountersTest, UncoverableQuerySummarizesNothing) {
  const Warehouse wh({.schema = MakeTinyApb1Schema(),
                      .fragmentation = MonthGroup(),
                      .backend = BackendKind::kMaterialized,
                      .seed = 42});
  // The store predicate lies outside the fragmentation: every fragment
  // needs its bitmap filter even though the month predicate is aligned.
  const auto outcome = wh.Execute(apb1_queries::OneGroupOneStore(7, 17));
  EXPECT_EQ(outcome.fragments_summarized, 0);
  EXPECT_EQ(outcome.rows_summarized, 0);
  EXPECT_GT(outcome.rows_scanned, 0);
}

TEST(SummaryCountersTest, BatchReusesScratchAndMatchesSingles) {
  const auto queries = QuerySweep();
  const Warehouse serial({.schema = MakeTinyApb1Schema(),
                          .fragmentation = MonthGroup(),
                          .backend = BackendKind::kMaterialized,
                          .seed = 42,
                          .num_workers = 1});
  const auto batch = serial.ExecuteBatch(queries);
  ASSERT_EQ(batch.queries.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto single = serial.Execute(queries[i]);
    EXPECT_EQ(*batch.queries[i].aggregate, *single.aggregate)
        << queries[i].name();
    EXPECT_EQ(batch.queries[i].rows_scanned, single.rows_scanned)
        << queries[i].name();
    EXPECT_EQ(batch.queries[i].rows_summarized, single.rows_summarized)
        << queries[i].name();
    EXPECT_EQ(batch.queries[i].fragments_summarized,
              single.fragments_summarized)
        << queries[i].name();
  }
}

}  // namespace
}  // namespace mdw
