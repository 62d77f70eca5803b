#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fragment/query_planner.h"
#include "schema/apb1.h"
#include "workload/query_parser.h"

namespace mdw {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : schema_(MakeApb1Schema()) {}

  StarQuery MustParse(const std::string& sql) {
    StatusOr<StarQuery> query = ParseSql(schema_, sql);
    EXPECT_TRUE(query.ok()) << sql << " -> " << query.status().message();
    return query.ok() ? *std::move(query) : StarQuery("invalid", {});
  }

  std::string MustFail(const std::string& sql) {
    const StatusOr<StarQuery> query = ParseSql(schema_, sql);
    EXPECT_FALSE(query.ok()) << sql;
    return query.status().message();
  }

  StarSchema schema_;
};

TEST_F(ParserTest, PaperExampleQuery) {
  // The paper's 1MONTH1GROUP, Sec. 3.1 (values made explicit).
  const auto q = MustParse(
      "SELECT SUM(UnitsSold), SUM(DollarSales) FROM sales "
      "WHERE time.month = 3 AND product.group = 41");
  ASSERT_EQ(q.predicates().size(), 2u);
  EXPECT_EQ(q.predicates()[0].dim, kApb1Time);
  EXPECT_EQ(q.predicates()[0].depth, 2);
  EXPECT_EQ(q.predicates()[0].values, std::vector<std::int64_t>{3});
  EXPECT_EQ(q.predicates()[1].dim, kApb1Product);
  EXPECT_EQ(q.predicates()[1].depth, 3);
}

TEST_F(ParserTest, ParsedQueryPlansLikeHandBuilt) {
  const Fragmentation f(&schema_, {{kApb1Time, 2}, {kApb1Product, 3}});
  const QueryPlanner planner(&schema_, &f);
  const auto parsed = MustParse(
      "SELECT SUM(UnitsSold) FROM sales "
      "WHERE time.month = 3 AND product.group = 41");
  const auto by_hand = apb1_queries::OneMonthOneGroup(3, 41);
  const auto plan_parsed = planner.Plan(parsed);
  const auto plan_hand = planner.Plan(by_hand);
  EXPECT_EQ(plan_parsed.FragmentCount(), plan_hand.FragmentCount());
  EXPECT_EQ(plan_parsed.io_class(), plan_hand.io_class());
  EXPECT_EQ(plan_parsed.MaterializeFragments(),
            plan_hand.MaterializeFragments());
}

TEST_F(ParserTest, InList) {
  const auto q = MustParse(
      "SELECT SUM(Cost) FROM sales WHERE product.code IN (1, 2, 50)");
  ASSERT_EQ(q.predicates().size(), 1u);
  EXPECT_EQ(q.predicates()[0].values,
            (std::vector<std::int64_t>{1, 2, 50}));
}

TEST_F(ParserTest, CaseInsensitiveKeywords) {
  const auto q = MustParse(
      "select sum(UnitsSold) from sales where customer.store = 17");
  ASSERT_EQ(q.predicates().size(), 1u);
  EXPECT_EQ(q.predicates()[0].dim, kApb1Customer);
}

TEST_F(ParserTest, NoWhereClauseMeansFullAggregate) {
  const auto q = MustParse("SELECT SUM(UnitsSold) FROM sales");
  EXPECT_TRUE(q.predicates().empty());
}

TEST_F(ParserTest, SelectStarAndMultipleAggregates) {
  const auto star = MustParse("SELECT * FROM sales WHERE channel.channel = 3");
  EXPECT_EQ(star.aggregates(), AggregateSpec::Default());
  const auto q = MustParse("SELECT COUNT(*), AVG(Cost), SUM(DollarSales) "
                           "FROM sales");
  ASSERT_EQ(q.aggregates().items.size(), 3u);
  EXPECT_EQ(q.aggregates().items[0].fn, AggFn::kCount);
  EXPECT_EQ(q.aggregates().items[1].fn, AggFn::kAvg);
  // Unknown measure names (the dialect's historical aliases) read
  // UnitsSold; DollarSales is the one name selecting the other measure.
  EXPECT_EQ(q.aggregates().items[1].measure, MeasureId::kUnitsSold);
  EXPECT_EQ(q.aggregates().items[2].fn, AggFn::kSum);
  EXPECT_EQ(q.aggregates().items[2].measure, MeasureId::kDollarSales);
}

TEST_F(ParserTest, RejectsMinMax) {
  const auto error = MustFail("SELECT MIN(Cost), MAX(Cost) FROM sales");
  EXPECT_NE(error.find("MIN/MAX"), std::string::npos);
}

TEST_F(ParserTest, GroupByClause) {
  const auto q = MustParse(
      "SELECT SUM(UnitsSold) FROM sales "
      "WHERE time.quarter = 2 GROUP BY product.group");
  ASSERT_TRUE(q.grouped());
  EXPECT_EQ(q.group_by()->dim, kApb1Product);
  EXPECT_EQ(q.group_by()->depth, 3);
  EXPECT_FALSE(q.order_by().has_value());
}

TEST_F(ParserTest, OrderByPositionWithLimit) {
  const auto q = MustParse(
      "SELECT SUM(UnitsSold), SUM(DollarSales) FROM sales "
      "GROUP BY time.month ORDER BY 2 DESC LIMIT 5");
  ASSERT_TRUE(q.order_by().has_value());
  EXPECT_EQ(q.order_by()->item, 1);
  EXPECT_TRUE(q.order_by()->descending);
  EXPECT_EQ(q.order_by()->limit, 5);
}

TEST_F(ParserTest, OrderByAggregateExpressionDefaultsToAscending) {
  const auto q = MustParse(
      "SELECT COUNT(*), SUM(DollarSales) FROM sales "
      "GROUP BY customer.store ORDER BY SUM(DollarSales)");
  ASSERT_TRUE(q.order_by().has_value());
  EXPECT_EQ(q.order_by()->item, 1);
  EXPECT_FALSE(q.order_by()->descending);
  EXPECT_EQ(q.order_by()->limit, 0);
}

TEST_F(ParserTest, RejectsBadGroupByAndOrderBy) {
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales GROUP BY supplier.name")
                .find("unknown dimension"),
            std::string::npos);
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales GROUP BY time.week")
                .find("unknown level"),
            std::string::npos);
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales ORDER BY 2")
                .find("outside the SELECT list"),
            std::string::npos);
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales ORDER BY AVG(x)")
                .find("not in the SELECT list"),
            std::string::npos);
  EXPECT_NE(MustFail("SELECT SUM(x) FROM sales ORDER BY 1 LIMIT 0")
                .find("LIMIT"),
            std::string::npos);
  MustFail("SELECT SUM(x) FROM sales GROUP BY");
  MustFail("SELECT SUM(x) FROM sales ORDER BY");
  MustFail("SELECT SUM(x) FROM sales LIMIT 3");  // LIMIT needs ORDER BY
}

TEST_F(ParserTest, ParseSqlReturnsTypedStatus) {
  const auto bad = ParseSql(schema_, "SELECT SUM(x) FROM nowhere");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("unknown fact table"),
            std::string::npos);
  const auto good = ParseSql(
      schema_, "SELECT SUM(UnitsSold) FROM sales GROUP BY time.year");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->grouped());
}

TEST_F(ParserTest, RejectsUnknownDimension) {
  const auto error =
      MustFail("SELECT SUM(x) FROM sales WHERE supplier.name = 1");
  EXPECT_NE(error.find("unknown dimension"), std::string::npos);
}

TEST_F(ParserTest, RejectsUnknownLevel) {
  const auto error =
      MustFail("SELECT SUM(x) FROM sales WHERE time.week = 1");
  EXPECT_NE(error.find("unknown level"), std::string::npos);
}

TEST_F(ParserTest, RejectsOutOfRangeValue) {
  const auto error =
      MustFail("SELECT SUM(x) FROM sales WHERE time.month = 24");
  EXPECT_NE(error.find("expected a value in [0, 24)"), std::string::npos);
}

// A literal past int64 is a typed error naming it, in every position
// that reads an integer.
constexpr char kHugeLiteral[] = "99999999999999999999";

void ExpectInvalidNamingHugeLiteral(const StatusOr<StarQuery>& q) {
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(q.status().message().find(kHugeLiteral), std::string::npos)
      << q.status().message();
}

TEST_F(ParserTest, RejectsOverflowingWhereValue) {
  ExpectInvalidNamingHugeLiteral(ParseSql(
      schema_,
      std::string("SELECT SUM(x) FROM sales WHERE time.month = ") +
          kHugeLiteral));
}

TEST_F(ParserTest, RejectsOverflowingOrderByPosition) {
  ExpectInvalidNamingHugeLiteral(ParseSql(
      schema_,
      std::string("SELECT SUM(x) FROM sales GROUP BY time.month ORDER BY ") +
          kHugeLiteral));
}

TEST_F(ParserTest, RejectsOverflowingLimit) {
  const std::string prefix =
      "SELECT SUM(x) FROM sales GROUP BY time.month ORDER BY 1 LIMIT ";
  ExpectInvalidNamingHugeLiteral(ParseSql(schema_, prefix + kHugeLiteral));
  // The largest int64 still parses; one more does not.
  EXPECT_EQ(MustParse(prefix + "9223372036854775807").order_by()->limit,
            INT64_MAX);
  MustFail(prefix + "9223372036854775808");
}

TEST_F(ParserTest, RejectsWrongFactTable) {
  const auto error = MustFail("SELECT SUM(x) FROM orders");
  EXPECT_NE(error.find("unknown fact table"), std::string::npos);
}

TEST_F(ParserTest, RejectsDuplicateDimension) {
  const auto error = MustFail(
      "SELECT SUM(x) FROM sales WHERE time.month = 1 AND time.year = 0");
  EXPECT_NE(error.find("duplicate predicate"), std::string::npos);
}

TEST_F(ParserTest, RejectsTrailingGarbage) {
  const auto error =
      MustFail("SELECT SUM(x) FROM sales WHERE time.month = 1 EXTRA");
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST_F(ParserTest, RejectsMalformedSyntax) {
  MustFail("");
  MustFail("FROM sales");
  MustFail("SELECT FROM sales");
  MustFail("SELECT SUM(UnitsSold FROM sales");
  MustFail("SELECT SUM(x) FROM sales WHERE");
  MustFail("SELECT SUM(x) FROM sales WHERE time month = 1");
  MustFail("SELECT SUM(x) FROM sales WHERE time.month 1");
  MustFail("SELECT SUM(x) FROM sales WHERE time.month IN 1");
  MustFail("SELECT SUM(x) FROM sales WHERE time.month IN (1, )");
}

TEST_F(ParserTest, WorksOnTinySchema) {
  const auto tiny = MakeTinyApb1Schema();
  const auto q = ParseSql(
      tiny, "SELECT SUM(UnitsSold) FROM tiny_sales WHERE product.code = 30");
  ASSERT_TRUE(q.ok()) << q.status().message();
  EXPECT_EQ(q->predicates()[0].values[0], 30);
}

}  // namespace
}  // namespace mdw
