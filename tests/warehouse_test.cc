#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/mini_warehouse.h"
#include "core/warehouse.h"
#include "fragment/star_query.h"
#include "schema/apb1.h"
#include "sim/simulator.h"
#include "workload/workload_driver.h"

namespace mdw {
namespace {

constexpr std::uint64_t kSeed = 42;

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

Warehouse TinyMaterialized() {
  return Warehouse({.schema = MakeTinyApb1Schema(),
                    .fragmentation = MonthGroup(),
                    .backend = BackendKind::kMaterialized,
                    .seed = kSeed});
}

// A sweep over every APB-1 query type, with values valid on the tiny
// schema (12 months, 4 quarters, 24 groups, 96 codes, 40 stores).
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
  return queries;
}

// ---------------------------------------------------------------------------
// Backend parity: the façade's materialized execution must equal the
// ground-truth full scan of an identically-seeded MiniWarehouse.

TEST(WarehouseMaterializedTest, ExecuteMatchesFullScanAcrossQuerySweep) {
  const Warehouse warehouse = TinyMaterialized();
  const MiniWarehouse reference(MakeTinyApb1Schema(), kSeed);
  ASSERT_EQ(warehouse.materialized()->row_count(), reference.row_count());

  for (const auto& query : QuerySweep()) {
    const auto outcome = warehouse.Execute(query);
    ASSERT_TRUE(outcome.aggregate.has_value()) << query.name();
    EXPECT_EQ(*outcome.aggregate, reference.ExecuteFullScan(query))
        << query.name();
    EXPECT_EQ(outcome.backend, BackendKind::kMaterialized);
    EXPECT_FALSE(outcome.sim.has_value());
  }
}

TEST(WarehouseMaterializedTest, OutcomeCarriesPlanFacts) {
  const Warehouse warehouse = TinyMaterialized();
  const auto outcome =
      warehouse.Execute(apb1_queries::OneMonthOneGroup(3, 7));
  EXPECT_EQ(outcome.query_class, QueryClass::kQ1);
  EXPECT_EQ(outcome.io_class, IoClass::kIoc1Opt);
  EXPECT_EQ(outcome.fragments_processed, 1);
  EXPECT_EQ(outcome.bitmaps_per_fragment, 0);
  // Hierarchy-aligned: the fragment is fully covered, so it is answered
  // from the measure prefix sums without scanning a row.
  EXPECT_EQ(outcome.rows_scanned, 0);
  EXPECT_EQ(outcome.fragments_summarized, 1);
  EXPECT_GT(outcome.rows_summarized, 0);
}

TEST(WarehouseMaterializedTest, BatchSumsAggregates) {
  const Warehouse warehouse = TinyMaterialized();
  const std::vector<StarQuery> queries = {apb1_queries::OneMonth(1),
                                          apb1_queries::OneMonth(5),
                                          apb1_queries::OneQuarter(2)};
  const auto batch = warehouse.ExecuteBatch(queries);
  ASSERT_EQ(batch.queries.size(), 3u);
  std::int64_t rows = 0;
  for (const auto& q : batch.queries) {
    ASSERT_TRUE(q.aggregate.has_value());
    rows += q.aggregate->rows;
  }
  EXPECT_GT(rows, 0);
}

// ---------------------------------------------------------------------------
// Lifetime: plans and copies must not dangle when the original façade (or
// the objects it was built from) go away — the hazard of the raw-pointer
// wiring the façade replaces.

TEST(WarehouseLifetimeTest, PlanOutlivesWarehouse) {
  std::optional<QueryPlan> plan;
  {
    const Warehouse warehouse = TinyMaterialized();
    plan = warehouse.Plan(apb1_queries::OneQuarter(2));
  }
  // The plan keeps fragmentation and schema alive via shared ownership.
  EXPECT_EQ(plan->FragmentCount(), 3 * 24);
  EXPECT_EQ(plan->fragmentation().Label(), "{time::month, product::group}");
  EXPECT_GT(plan->ExpectedHits(), 0);
}

TEST(WarehouseLifetimeTest, CopiesShareStateAndOutliveTheOriginal) {
  std::optional<Warehouse> copy;
  const StarQuery query = apb1_queries::OneMonthOneGroup(3, 7);
  MiniWarehouse::AggregateResult original_result;
  {
    const Warehouse warehouse = TinyMaterialized();
    original_result = *warehouse.Execute(query).aggregate;
    copy = warehouse;
  }
  EXPECT_EQ(*copy->Execute(query).aggregate, original_result);
}

// ---------------------------------------------------------------------------
// Simulated backend smoke tests at the paper's full APB-1 scale.

TEST(WarehouseSimulatedTest, Apb1ScaleSingleQuery) {
  SimConfig sim;
  sim.num_disks = 20;
  sim.num_nodes = 4;
  const Warehouse warehouse({.schema = MakeApb1Schema(),
                             .fragmentation = MonthGroup(),
                             .backend = BackendKind::kSimulated,
                             .sim = sim});
  const auto outcome = warehouse.Execute(apb1_queries::OneMonthOneGroup(3, 41));
  EXPECT_EQ(outcome.backend, BackendKind::kSimulated);
  EXPECT_EQ(outcome.query_class, QueryClass::kQ1);
  ASSERT_TRUE(outcome.sim.has_value());
  EXPECT_GT(outcome.response_ms, 0);
  EXPECT_EQ(outcome.response_ms, outcome.sim->avg_response_ms);
  EXPECT_GT(outcome.sim->disk_ios, 0);
  EXPECT_FALSE(outcome.aggregate.has_value());
}

TEST(WarehouseSimulatedTest, FacadeMatchesDirectSimulatorConstruction) {
  SimConfig sim;
  sim.num_disks = 20;
  sim.num_nodes = 4;
  const auto query = apb1_queries::OneMonthOneGroup(3, 41);

  const Warehouse warehouse({.schema = MakeApb1Schema(),
                             .fragmentation = MonthGroup(),
                             .backend = BackendKind::kSimulated,
                             .sim = sim});
  const auto via_facade = warehouse.Execute(query);

  const auto schema = MakeApb1Schema();
  const Fragmentation frag(&schema, MonthGroup());
  const auto direct = Simulator(&schema, &frag, sim).RunSingleUser({query});
  EXPECT_EQ(via_facade.response_ms, direct.avg_response_ms);
  EXPECT_EQ(via_facade.sim->disk_ios, direct.disk_ios);
}

TEST(WarehouseSimulatedTest, BatchRunsMultiUserStreams) {
  SimConfig sim;
  sim.num_disks = 20;
  sim.num_nodes = 4;
  const Warehouse warehouse({.schema = MakeApb1Schema(),
                             .fragmentation = MonthGroup(),
                             .backend = BackendKind::kSimulated,
                             .sim = sim});
  const std::vector<StarQuery> queries = {
      apb1_queries::OneMonthOneGroup(1, 10),
      apb1_queries::OneMonthOneGroup(2, 20),
      apb1_queries::OneMonthOneGroup(3, 30),
      apb1_queries::OneMonthOneGroup(4, 40)};

  const auto batch = warehouse.ExecuteBatch(queries, /*streams=*/2);
  ASSERT_TRUE(batch.sim.has_value());
  EXPECT_EQ(batch.sim->response_ms.size(), queries.size());
  EXPECT_EQ(batch.queries.size(), queries.size());
  // Multi-stream batches attribute response times by submitted query id
  // (not completion order), so per-query latency survives streams > 1.
  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    EXPECT_EQ(batch.queries[i].response_ms,
              batch.sim->response_by_query_ms[i]);
    EXPECT_GT(batch.queries[i].response_ms, 0);
  }
  EXPECT_GT(batch.makespan_ms, 0);
  EXPECT_GT(batch.ThroughputPerSecond(), 0);

  // Two streams finish no later than one stream running back-to-back.
  const auto serial = warehouse.ExecuteBatch(queries, /*streams=*/1);
  EXPECT_LE(batch.makespan_ms, serial.makespan_ms * 1.001);
  // Single-stream batches attribute per-query response times.
  for (std::size_t i = 0; i < serial.queries.size(); ++i) {
    EXPECT_EQ(serial.queries[i].response_ms, serial.sim->response_ms[i]);
  }
}

// ---------------------------------------------------------------------------
// WorkloadDriver plumbing: drivers target the façade, on either backend.

TEST(WarehouseDriverTest, DriverRunsAgainstSimulatedFacade) {
  SimConfig sim;
  sim.num_disks = 20;
  sim.num_nodes = 4;
  WorkloadDriver driver(Warehouse({.schema = MakeApb1Schema(),
                                   .fragmentation = MonthGroup(),
                                   .backend = BackendKind::kSimulated,
                                   .sim = sim}));
  const auto batch = driver.RunBatch(QueryType::k1Month1Group, 4);
  ASSERT_TRUE(batch.sim.has_value());
  EXPECT_EQ(batch.sim->response_ms.size(), 4u);
  EXPECT_EQ(batch.queries.size(), 4u);
}

TEST(WarehouseDriverTest, DriverRunsAgainstMaterializedFacade) {
  WorkloadDriver driver(TinyMaterialized());
  const auto batch = driver.RunBatch(QueryType::k1Month1Group, 3);
  EXPECT_FALSE(batch.sim.has_value());
  ASSERT_EQ(batch.queries.size(), 3u);
  for (const auto& outcome : batch.queries) {
    ASSERT_TRUE(outcome.aggregate.has_value());
    EXPECT_EQ(outcome.query_class, QueryClass::kQ1);
  }
}

}  // namespace
}  // namespace mdw
