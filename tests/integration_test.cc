#include <gtest/gtest.h>

#include "core/mdw.h"

namespace mdw {
namespace {

// Cross-module integration tests at the paper's full APB-1 scale (the
// simulator never materialises the fact data, so these run in seconds).

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : schema_(MakeApb1Schema()),
        month_group_(&schema_, {{kApb1Time, 2}, {kApb1Product, 3}}) {}

  StarSchema schema_;
  Fragmentation month_group_;
};

TEST_F(IntegrationTest, Figure4ShapeCpuBoundSpeedup) {
  // 1MONTH response times depend on processors, not disks (paper Fig. 4).
  const auto q = apb1_queries::OneMonth(3);
  SimConfig config;
  config.num_disks = 100;
  config.tasks_per_node = 4;

  config.num_nodes = 5;
  const auto p5 = Simulator(&schema_, &month_group_, config)
                      .RunSingleUser({q}).avg_response_ms;
  config.num_nodes = 25;
  const auto p25 = Simulator(&schema_, &month_group_, config)
                       .RunSingleUser({q}).avg_response_ms;
  // Near-linear speed-up in processors.
  EXPECT_GT(p5 / p25, 3.0);

  // Insensitive to the number of disks for fixed processors.
  config.num_nodes = 5;
  config.num_disks = 60;
  const auto d60 = Simulator(&schema_, &month_group_, config)
                       .RunSingleUser({q}).avg_response_ms;
  EXPECT_NEAR(d60 / p5, 1.0, 0.25);
}

TEST_F(IntegrationTest, Figure3ShapeDiskBoundSpeedup) {
  // 1STORE response times depend on the number of disks (paper Fig. 3).
  // Keep t*p >= d so all disks can be utilised.
  const auto driver = [&](int disks, int nodes) {
    SimConfig c;
    c.num_disks = disks;
    c.num_nodes = nodes;
    c.tasks_per_node = 5;
    return WorkloadDriver(Warehouse({.schema = schema_,
                                     .fragmentation = month_group_.attrs(),
                                     .sim = c}));
  };
  const auto r20 = driver(20, 4).RunSingleUser(QueryType::k1Store, 1);
  const auto r60 = driver(60, 12).RunSingleUser(QueryType::k1Store, 1);
  // Paper: linear (slightly superlinear) speed-up with disks.
  EXPECT_GT(r20.avg_response_ms / r60.avg_response_ms, 2.5);
}

TEST_F(IntegrationTest, Figure6ShapeFragmentationOrdering) {
  // 1CODE1QUARTER gets faster with finer product fragmentation; 1STORE
  // gets drastically worse under F_MonthCode (paper Fig. 6).
  const Fragmentation f_class(&schema_, {{kApb1Time, 2}, {kApb1Product, 4}});
  const Fragmentation f_code(&schema_, {{kApb1Time, 2}, {kApb1Product, 5}});
  SimConfig config;
  config.num_disks = 100;
  config.num_nodes = 20;
  config.tasks_per_node = 1;

  const auto q = apb1_queries::OneCodeOneQuarter(35, 2);
  const auto group_ms = Simulator(&schema_, &month_group_, config)
                            .RunSingleUser({q}).avg_response_ms;
  const auto class_ms = Simulator(&schema_, &f_class, config)
                            .RunSingleUser({q}).avg_response_ms;
  const auto code_ms = Simulator(&schema_, &f_code, config)
                           .RunSingleUser({q}).avg_response_ms;
  EXPECT_LT(class_ms, group_ms);  // halved fragment size
  EXPECT_LT(code_ms, class_ms);   // no bitmaps, only relevant tuples
}

TEST_F(IntegrationTest, CostModelPredictsSimulatorIoCounts) {
  // The simulator's physical I/O must track the analytical model: for an
  // IOC1 query the page counts agree exactly.
  const QueryPlanner planner(&schema_, &month_group_);
  const IoCostModel model(&schema_);
  const auto plan = planner.Plan(apb1_queries::OneMonth(3));
  const auto est = model.Estimate(plan);

  SimConfig config;
  config.num_disks = 100;
  config.num_nodes = 20;
  Simulator sim(&schema_, &month_group_, config);
  const auto result = sim.RunSingleUser({apb1_queries::OneMonth(3)});
  EXPECT_EQ(result.disk_pages, est.fact_pages_read);
  EXPECT_EQ(result.disk_ios, est.fact_io_ops);
}

TEST_F(IntegrationTest, CostModelTracksSimulatorForBitmapQueries) {
  // For IOC2 queries the simulator samples the expected granule count; the
  // totals must stay within a few percent of the analytical expectation.
  const QueryPlanner planner(&schema_, &month_group_);
  const IoCostModel model(&schema_);
  const auto q = apb1_queries::OneGroupOneStore(41, 7);
  const auto est = model.Estimate(planner.Plan(q));

  SimConfig config;
  config.num_disks = 100;
  config.num_nodes = 20;
  Simulator sim(&schema_, &month_group_, config);
  const auto result = sim.RunSingleUser({q});
  EXPECT_NEAR(static_cast<double>(result.disk_pages),
              static_cast<double>(est.TotalPagesRead()),
              0.10 * static_cast<double>(est.TotalPagesRead()));
}

TEST_F(IntegrationTest, EliminatedBitmapsNeverRead) {
  // Under F_MonthGroup, 1MONTH1GROUP and 1QUARTER read zero bitmap pages
  // even though the unfragmented plan would need them.
  SimConfig config;
  config.num_disks = 20;
  config.num_nodes = 4;
  Simulator sim(&schema_, &month_group_, config);
  const QueryPlanner planner(&schema_, &month_group_);
  for (const auto& q : {apb1_queries::OneMonthOneGroup(3, 41),
                        apb1_queries::OneQuarter(2),
                        apb1_queries::OneMonth(3)}) {
    EXPECT_FALSE(planner.Plan(q).NeedsBitmaps()) << q.name();
  }
}

TEST_F(IntegrationTest, AdvisorChoiceBeatsRejectedChoiceInSimulation) {
  // End-to-end: the advisor's recommendation for a 1CODE1QUARTER workload
  // must actually simulate faster than a rejected fine fragmentation would
  // for the I/O-bound 1STORE workload.
  AdvisorOptions options;
  options.thresholds.min_bitmap_fragment_pages = 4.0;
  options.thresholds.min_fragments = 100;
  options.thresholds.max_fragments = 50'000;
  const AllocationAdvisor advisor(&schema_, options);
  const auto recommended = advisor.Recommend(
      {{apb1_queries::OneStore(7), 1.0}, {apb1_queries::OneMonth(3), 1.0}});
  ASSERT_FALSE(recommended.empty());

  SimConfig config;
  config.num_disks = 100;
  config.num_nodes = 20;
  config.tasks_per_node = 5;
  const Fragmentation f_code(&schema_, {{kApb1Time, 2}, {kApb1Product, 5}});
  const auto best_ms =
      Simulator(&schema_, &recommended.front().fragmentation, config)
          .RunSingleUser({apb1_queries::OneStore(7)}).avg_response_ms;
  const auto code_ms = Simulator(&schema_, &f_code, config)
                           .RunSingleUser({apb1_queries::OneStore(7)})
                           .avg_response_ms;
  EXPECT_LT(best_ms, code_ms);
}

TEST_F(IntegrationTest, StaggeredAllocationSpreadsBitmapLoad) {
  // With staggered placement the bitmap reads of a subquery go to
  // distinct disks; with same-disk placement one disk serves them all.
  SimConfig staggered;
  staggered.num_disks = 100;
  staggered.num_nodes = 4;
  staggered.tasks_per_node = 1;
  SimConfig same = staggered;
  same.bitmap_placement = BitmapPlacement::kSameDisk;
  const auto q = apb1_queries::OneGroupOneStore(41, 7);
  const auto r_staggered = Simulator(&schema_, &month_group_, staggered)
                               .RunSingleUser({q});
  const auto r_same =
      Simulator(&schema_, &month_group_, same).RunSingleUser({q});
  EXPECT_LE(r_staggered.avg_response_ms, r_same.avg_response_ms);
}

TEST_F(IntegrationTest, TinySchemaSimulatorAgreesWithWarehouseSemantics) {
  // The same fragmentation + query on the tiny schema: the simulator's
  // subquery count equals the plan's fragment count, and the warehouse
  // confirms the plan's row semantics.
  const MiniWarehouse warehouse(MakeTinyApb1Schema(), 7,
                                {{kApb1Time, 2}, {kApb1Product, 3}});
  const Fragmentation f(&warehouse.schema(),
                        {{kApb1Time, 2}, {kApb1Product, 3}});
  const StarQuery q("1GROUP", {{kApb1Product, 3, {7}}});
  const auto exec =
      warehouse.ExecuteWithPlan(q, QueryPlanner(&f.schema(), &f).Plan(q));

  SimConfig config;
  config.num_disks = 4;
  config.num_nodes = 2;
  Simulator sim(&f.schema(), &f, config);
  const auto result = sim.RunSingleUser({q});
  EXPECT_EQ(result.subqueries, exec.fragments_processed);
}

}  // namespace
}  // namespace mdw
