#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "fragment/query_planner.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

// All planner behaviour below is checked against the worked examples of
// paper Sections 4.2 and 4.5 for F_MonthGroup = {time::month,
// product::group} on the APB-1 configuration.
class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : schema_(MakeApb1Schema()),
        month_group_(&schema_, {{kApb1Time, 2}, {kApb1Product, 3}}),
        planner_(&schema_, &month_group_) {}

  StarSchema schema_;
  Fragmentation month_group_;
  QueryPlanner planner_;
};

TEST_F(PlannerTest, Q1ExactMatchOnAllFragmentationAttributes) {
  // 1MONTH1GROUP: exactly 1 fragment, no bitmaps (paper Q1).
  const auto plan = planner_.Plan(apb1_queries::OneMonthOneGroup(3, 41));
  EXPECT_EQ(plan.query_class(), QueryClass::kQ1);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc1Opt);
  EXPECT_EQ(plan.FragmentCount(), 1);
  EXPECT_FALSE(plan.NeedsBitmaps());
  EXPECT_EQ(plan.BitmapsPerFragment(), 0);
  EXPECT_EQ(plan.MaterializeFragments(), std::vector<FragId>{3 * 480 + 41});
}

TEST_F(PlannerTest, Q1SubsetOfFragmentationAttributes) {
  // 1GROUP over all 24 months: 24 fragments, still no bitmaps.
  const StarQuery group("1GROUP", {{kApb1Product, 3, {41}}});
  const auto plan = planner_.Plan(group);
  EXPECT_EQ(plan.query_class(), QueryClass::kQ1);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc1);
  EXPECT_EQ(plan.FragmentCount(), 24);
  EXPECT_FALSE(plan.NeedsBitmaps());
}

TEST_F(PlannerTest, Q1WithForeignDimensionNeedsItsBitmapsOnly) {
  // 1GROUP1STORE: 24 fragments; bitmap access only for CUSTOMER
  // (paper: "can use a bitmap index on CUSTOMER").
  const auto plan = planner_.Plan(apb1_queries::OneGroupOneStore(41, 7));
  EXPECT_EQ(plan.query_class(), QueryClass::kQ1);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc2);
  EXPECT_EQ(plan.FragmentCount(), 24);
  EXPECT_TRUE(plan.NeedsBitmaps());
  // The full 12-bit encoded customer prefix.
  EXPECT_EQ(plan.BitmapsPerFragment(), 12);
  for (const auto& a : plan.accesses()) {
    if (a.dim == kApb1Customer) {
      EXPECT_TRUE(a.needs_bitmap);
    } else {
      EXPECT_FALSE(a.needs_bitmap);
    }
  }
}

TEST_F(PlannerTest, Q2LowerLevelBothDimensions) {
  // 1CODE1MONTH: 1 fragment (paper Q2: "Ideally, only 1 fragment").
  const auto plan = planner_.Plan(apb1_queries::OneCodeOneMonth(35, 5));
  EXPECT_EQ(plan.query_class(), QueryClass::kQ2);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc2);
  EXPECT_EQ(plan.FragmentCount(), 1);
  // Code 35 belongs to group 1; month 5 -> fragment 5*480+1.
  EXPECT_EQ(plan.MaterializeFragments(), std::vector<FragId>{5 * 480 + 1});
  // Suffix bitmaps below group: 15 - 10 = 5 (paper Table 1).
  EXPECT_TRUE(plan.NeedsBitmaps());
  EXPECT_EQ(plan.BitmapsPerFragment(), 5);
}

TEST_F(PlannerTest, Q2LowerLevelOneDimension) {
  // 1CODE over all months: 24 fragments (paper: "1CODE ... involves 24").
  const auto plan = planner_.Plan(apb1_queries::OneCode(35));
  EXPECT_EQ(plan.query_class(), QueryClass::kQ2);
  EXPECT_EQ(plan.FragmentCount(), 24);
  EXPECT_EQ(plan.BitmapsPerFragment(), 5);
  // The 24 fragments are every 480th id starting at group 1's offset.
  const auto frags = plan.MaterializeFragments();
  for (std::size_t m = 0; m < frags.size(); ++m) {
    EXPECT_EQ(frags[m], static_cast<FragId>(m) * 480 + 1);
  }
}

TEST_F(PlannerTest, Q3HigherLevelQuarter) {
  // 1GROUP1QUARTER: 3 fragments (paper Q3: "three fragments rather than
  // one"), no bitmap for either dimension.
  const StarQuery q("1GROUP1QUARTER",
                    {{kApb1Product, 3, {41}}, {kApb1Time, 1, {2}}});
  const auto plan = planner_.Plan(q);
  EXPECT_EQ(plan.query_class(), QueryClass::kQ3);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc1);
  EXPECT_EQ(plan.FragmentCount(), 3);
  EXPECT_FALSE(plan.NeedsBitmaps());
  // Quarter 2 covers months 6, 7, 8.
  const auto frags = plan.MaterializeFragments();
  EXPECT_EQ(frags, (std::vector<FragId>{6 * 480 + 41, 7 * 480 + 41,
                                        8 * 480 + 41}));
}

TEST_F(PlannerTest, Q3QuarterAloneIsOneEighthOfFragments) {
  // Paper: one QUARTER over all groups -> 480 * 3 = 1,440 fragments
  // ("one eighth of all fragments").
  const auto plan = planner_.Plan(apb1_queries::OneQuarter(2));
  EXPECT_EQ(plan.query_class(), QueryClass::kQ3);
  EXPECT_EQ(plan.FragmentCount(), 1'440);
  EXPECT_EQ(plan.FragmentCount() * 8, month_group_.FragmentCount());
  EXPECT_FALSE(plan.NeedsBitmaps());
}

TEST_F(PlannerTest, Q4MixedCodeAndQuarter) {
  // 1CODE1QUARTER: 3 fragments (paper Q4: "restricted to 3 fragments
  // because 1 product CODE and 3 MONTHs are involved").
  const auto plan = planner_.Plan(apb1_queries::OneCodeOneQuarter(35, 2));
  EXPECT_EQ(plan.query_class(), QueryClass::kQ4);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc2);
  EXPECT_EQ(plan.FragmentCount(), 3);
  EXPECT_EQ(plan.BitmapsPerFragment(), 5);
}

TEST_F(PlannerTest, UnsupportedQueryProcessesAllFragments) {
  // 1STORE: customer not in F -> all 11,520 fragments, 12 bitmaps
  // (paper Sec. 6.2/6.3).
  const auto plan = planner_.Plan(apb1_queries::OneStore(7));
  EXPECT_EQ(plan.query_class(), QueryClass::kUnsupported);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc2NoSupp);
  EXPECT_EQ(plan.FragmentCount(), 11'520);
  EXPECT_TRUE(plan.NeedsBitmaps());
  EXPECT_EQ(plan.BitmapsPerFragment(), 12);
}

TEST_F(PlannerTest, MonthQueryIsOptimallySupported) {
  // 1MONTH: 480 fragments, no bitmap access (paper Sec. 6.1).
  const auto plan = planner_.Plan(apb1_queries::OneMonth(5));
  EXPECT_EQ(plan.query_class(), QueryClass::kQ1);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc1);
  EXPECT_EQ(plan.FragmentCount(), 480);
  EXPECT_FALSE(plan.NeedsBitmaps());
}

TEST_F(PlannerTest, SelectivityAndHits) {
  // 1STORE selectivity 1/1440 (paper Sec. 6.3); hits per fragment 112.5.
  const auto plan = planner_.Plan(apb1_queries::OneStore(7));
  EXPECT_NEAR(plan.selectivity(), 1.0 / 1'440, 1e-12);
  EXPECT_NEAR(plan.ExpectedHits(), 1'296'000.0, 1e-6);
  EXPECT_NEAR(plan.HitsPerFragment(), 112.5, 1e-9);
  // 1CODE1QUARTER: 16,200 rows in total (paper Sec. 6.3).
  const auto p2 = planner_.Plan(apb1_queries::OneCodeOneQuarter(35, 2));
  EXPECT_NEAR(p2.ExpectedHits(), 16'200.0, 1e-6);
}

TEST_F(PlannerTest, FragmentSelectivityWithinFragments) {
  // Paper Sec. 6.3: within a group, a code selects 1/30 of the rows.
  const auto plan = planner_.Plan(apb1_queries::OneCodeOneQuarter(35, 2));
  EXPECT_NEAR(plan.FragmentSelectivity(), 1.0 / 30, 1e-12);
}

TEST_F(PlannerTest, InListExpandsSlices) {
  const StarQuery q("2GROUPS", {{kApb1Product, 3, {41, 99}}});
  const auto plan = planner_.Plan(q);
  EXPECT_EQ(plan.FragmentCount(), 48);  // 2 groups x 24 months
}

TEST_F(PlannerTest, InListOfCodesInSameGroupDeduplicates) {
  // Codes 30 and 31 both belong to group 1: one fragment per month.
  const StarQuery q("2CODES", {{kApb1Product, 5, {30, 31}}});
  const auto plan = planner_.Plan(q);
  EXPECT_EQ(plan.FragmentCount(), 24);
}

TEST_F(PlannerTest, ForEachFragmentAscendingAllocationOrder) {
  const auto plan = planner_.Plan(apb1_queries::OneQuarter(1));
  FragId previous = -1;
  plan.ForEachFragment([&](FragId id) {
    EXPECT_GT(id, previous);
    previous = id;
  });
}

TEST_F(PlannerTest, ForEachFragmentWalksTheSliceCrossProduct) {
  // Classes 2 and 3 fill group 1 (covered); class 82 is half of group 41
  // (residual); the quarter covers its three months. Every (month,
  // group) pair comes out once, as FragmentIdOf numbers it, covered iff
  // both coordinates are.
  const StarQuery q("MIXED", {{kApb1Product, 4, {2, 3, 82}},
                              {kApb1Time, 1, {1}}});
  const auto plan = planner_.Plan(q);
  std::vector<std::pair<FragId, bool>> expected;
  for (std::size_t m = 0; m < plan.slice(0).size(); ++m) {
    for (std::size_t g = 0; g < plan.slice(1).size(); ++g) {
      expected.emplace_back(
          month_group_.FragmentIdOf({plan.slice(0)[m], plan.slice(1)[g]}),
          plan.coverable() && plan.covered(0)[m] && plan.covered(1)[g]);
    }
  }
  std::vector<std::pair<FragId, bool>> walked;
  plan.ForEachFragment(
      [&walked](FragId id, bool covered) { walked.emplace_back(id, covered); });
  EXPECT_EQ(walked, expected);
  EXPECT_EQ(static_cast<std::int64_t>(walked.size()), plan.FragmentCount());
  std::int64_t covered = 0;
  for (const auto& [id, c] : walked) covered += c ? 1 : 0;
  EXPECT_EQ(covered, plan.CoveredFragmentCount());
  EXPECT_GT(covered, 0);
  EXPECT_LT(covered, plan.FragmentCount());
}

TEST_F(PlannerTest, EmptySliceSelectsNoFragment) {
  const auto frag = std::make_shared<const Fragmentation>(
      &schema_, std::vector<FragAttr>{{kApb1Time, 2}, {kApb1Product, 3}});
  const QueryPlan plan(frag, {{3, 4}, {}}, QueryClass::kQ1, IoClass::kIoc1,
                       {}, 0.0);
  EXPECT_EQ(plan.FragmentCount(), 0);
  EXPECT_TRUE(plan.MaterializeFragments().empty());
}

TEST_F(PlannerTest, ChannelPredicateUsesSimpleIndexOneBitmap) {
  const StarQuery q("1CHANNEL", {{kApb1Channel, 0, {3}}});
  const auto plan = planner_.Plan(q);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc2NoSupp);
  EXPECT_EQ(plan.FragmentCount(), 11'520);
  EXPECT_EQ(plan.BitmapsPerFragment(), 1);  // simple index: one bitmap
}

TEST_F(PlannerTest, YearQueryOnMonthFragmentation) {
  // YEAR is above MONTH: Q3, 12 months -> 12 * 480 fragments.
  const StarQuery q("1YEAR", {{kApb1Time, 0, {1}}});
  const auto plan = planner_.Plan(q);
  EXPECT_EQ(plan.query_class(), QueryClass::kQ3);
  EXPECT_EQ(plan.FragmentCount(), 12 * 480);
  EXPECT_FALSE(plan.NeedsBitmaps());
}

TEST(PlannerFoptTest, Table3OptimalFragmentation) {
  // F_opt = {customer::store} makes 1STORE an IOC1-opt single-fragment
  // query (paper Table 3).
  const auto schema = MakeApb1Schema();
  const Fragmentation fopt(&schema, {{kApb1Customer, 1}});
  const QueryPlanner planner(&schema, &fopt);
  const auto plan = planner.Plan(apb1_queries::OneStore(7));
  EXPECT_EQ(plan.query_class(), QueryClass::kQ1);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc1Opt);
  EXPECT_EQ(plan.FragmentCount(), 1);
  EXPECT_FALSE(plan.NeedsBitmaps());
}

TEST(PlannerUnfragmentedTest, EverythingInOneFragment) {
  const auto schema = MakeApb1Schema();
  const Fragmentation none(&schema, {});
  const QueryPlanner planner(&schema, &none);
  const auto plan = planner.Plan(apb1_queries::OneStore(7));
  EXPECT_EQ(plan.FragmentCount(), 1);
  EXPECT_EQ(plan.io_class(), IoClass::kIoc2NoSupp);
  EXPECT_TRUE(plan.NeedsBitmaps());
}

// Parameterised sweep: for every (fragmentation depth, query depth) combo
// on the product dimension, the fragment count follows the paper's rule:
//   depth(q) <= depth(f): card(f)/card(q) fragments (per month factor 24)
//   depth(q) >  depth(f): 1 fragment slice (times 24 months)
class DepthComboTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DepthComboTest, FragmentCountFollowsHierarchyRatio) {
  const auto schema = MakeApb1Schema();
  const auto [frag_depth, query_depth] = GetParam();
  const Fragmentation f(&schema, {{kApb1Product, frag_depth}});
  const QueryPlanner planner(&schema, &f);
  const auto& h = schema.dimension(kApb1Product).hierarchy();
  const StarQuery q("probe", {{kApb1Product, query_depth, {0}}});
  const auto plan = planner.Plan(q);
  if (query_depth <= frag_depth) {
    EXPECT_EQ(plan.FragmentCount(),
              h.Cardinality(frag_depth) / h.Cardinality(query_depth));
    EXPECT_FALSE(plan.NeedsBitmaps());
  } else {
    EXPECT_EQ(plan.FragmentCount(), 1);
    EXPECT_TRUE(plan.NeedsBitmaps());
    EXPECT_EQ(plan.BitmapsPerFragment(),
              h.PrefixBits(query_depth) - h.PrefixBits(frag_depth));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDepthPairs, DepthComboTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(0, 1, 2, 3, 4, 5)));

}  // namespace
}  // namespace mdw
