#include <gtest/gtest.h>

#include "schema/apb1.h"
#include "workload/workload_driver.h"

namespace mdw {
namespace {

class WorkloadDriverTest : public ::testing::Test {
 protected:
  SimConfig Config() {
    SimConfig config;
    config.num_disks = 20;
    config.num_nodes = 4;
    return config;
  }

  /// A simulated APB-1 warehouse under {time.month, product.group}.
  Warehouse Simulated(SimConfig config) const {
    return Warehouse({.schema = MakeApb1Schema(),
                      .fragmentation = {{kApb1Time, 2}, {kApb1Product, 3}},
                      .sim = config});
  }
};

TEST_F(WorkloadDriverTest, RunsRequestedRepetitions) {
  WorkloadDriver driver(Simulated(Config()));
  const auto result = driver.RunSingleUser(QueryType::k1Month1Group, 5);
  EXPECT_EQ(result.response_ms.size(), 5u);
  EXPECT_EQ(result.subqueries, 5);  // one fragment per query instance
}

TEST_F(WorkloadDriverTest, SingleUserResponsesAreSimilar) {
  // Random parameters change the selected fragment but not the work per
  // query: single-user responses of one type vary little.
  WorkloadDriver driver(Simulated(Config()));
  const auto result = driver.RunSingleUser(QueryType::k1Month1Group, 5);
  EXPECT_LT(result.max_response_ms, 1.5 * result.min_response_ms);
  EXPECT_GE(result.max_response_ms, result.avg_response_ms);
  EXPECT_LE(result.min_response_ms, result.avg_response_ms);
}

TEST_F(WorkloadDriverTest, MixRunsAllComponents) {
  WorkloadDriver driver(Simulated(Config()));
  const auto result = driver.RunMix(
      {{QueryType::k1Month1Group, 3}, {QueryType::k1Code1Month, 2}},
      /*streams=*/2);
  EXPECT_EQ(result.response_ms.size(), 5u);
  EXPECT_GT(result.makespan_ms, 0);
}

TEST_F(WorkloadDriverTest, DeterministicAcrossInstances) {
  WorkloadDriver a(Simulated(Config()));
  WorkloadDriver b(Simulated(Config()));
  const auto ra = a.RunSingleUser(QueryType::k1Group1Store, 3);
  const auto rb = b.RunSingleUser(QueryType::k1Group1Store, 3);
  EXPECT_EQ(ra.response_ms, rb.response_ms);
}

TEST_F(WorkloadDriverTest, SeedChangesParameters) {
  SimConfig other = Config();
  other.seed = 4711;
  WorkloadDriver a(Simulated(Config()));
  WorkloadDriver b(Simulated(other));
  const auto ra = a.RunSingleUser(QueryType::k1Code1Month, 4);
  const auto rb = b.RunSingleUser(QueryType::k1Code1Month, 4);
  // Different query parameters land on different fragments/disk positions;
  // totals stay in the same regime but traces differ.
  EXPECT_NE(ra.response_ms, rb.response_ms);
}

}  // namespace
}  // namespace mdw
