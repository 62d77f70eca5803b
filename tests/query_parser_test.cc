#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fragment/plan_cache.h"
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

// The lexer keeps every parse and every message. The expected strings
// were produced by ParseSql with the previous lexer, which built a
// std::string per token and classified characters through <cctype>; the
// string_view lexer must reproduce them byte for byte. A valid statement
// pins its CanonicalQuerySignature plus ORDER BY and LIMIT; an invalid
// one its exact diagnostic.
struct LexCase {
  const char* sql;
  bool ok;
  const char* expected;
};

std::string Describe(const StarQuery& q) {
  std::string d = CanonicalQuerySignature(q);
  if (q.order_by().has_value()) {
    d += " order=" + std::to_string(q.order_by()->item) +
         (q.order_by()->descending ? " desc" : " asc") +
         " limit=" + std::to_string(q.order_by()->limit);
  }
  return d;
}

TEST_F(ParserTest, LexerKeepsEveryParseAndMessage) {
  const LexCase cases[] = {
      {"SELECT SUM(UnitsSold), SUM(DollarSales) FROM sales WHERE "
       "time.month = 3 AND product.group = 41",
       true, "d0@3:41,;d3@2:3,;|a0.0,0.1,"},
      {"select sum(dollarsales) from SALES where time.month = 3",
       true, "d3@2:3,;|a0.1,"},
      {"SeLeCt CoUnT(*), aVg(DOLLARSALES) FrOm SaLeS wHeRe customer.store "
       "= 17 GrOuP bY time.quarter OrDeR bY 2 dEsC lImIt 3",
       true, "d1@1:17,;|a1.0,2.1,|g3@1 order=1 desc limit=3"},
      {"SELECT\tSUM(UnitsSold)\nFROM\tsales\r\nWHERE\ttime.month\n=\n5\n",
       true, "d3@2:5,;|a0.0,"},
      {"  SELECT SUM(UnitsSold) FROM sales  ",
       true, "|a0.0,"},
      {"SELECT SUM(units_sold_2), AVG(_x9) FROM sales WHERE product.code "
       "= 30",
       true, "d0@5:30,;|a0.0,2.0,"},
      {"SELECT SUM(x) FROM sales WHERE product.code IN (30, 1, 30, 959) "
       "AND channel.channel = 2",
       true, "d0@5:1,30,30,959,;d2@0:2,;|a0.0,"},
      {"SELECT SUM(x) FROM sales WHERE time.month IN(0,1,2)AND "
       "customer.retailer IN (3)",
       true, "d1@0:3,;d3@2:0,1,2,;|a0.0,"},
      {"SELECT * FROM sales",
       true, "|a0.0,0.1,"},
      {"SELECT *, COUNT(*) FROM sales WHERE time.month = 007",
       true, "d3@2:7,;|a0.0,0.1,1.0,"},
      {"SELECT SUM(UnitsSold), SUM(DollarSales) FROM sales GROUP BY "
       "product.family ORDER BY SUM(DollarSales) DESC LIMIT 5",
       true, "|a0.0,0.1,|g0@2 order=1 desc limit=5"},
      {"SELECT COUNT(*), AVG(UnitsSold) FROM sales WHERE time.year = 1 "
       "GROUP BY customer.store ORDER BY avg(unitssold) ASC",
       true, "d3@0:1,;|a1.0,2.0,|g1@1 order=1 asc limit=0"},
      {"SELECT COUNT(UnitsSold) FROM sales ORDER BY count(*) LIMIT "
       "9223372036854775807",
       true, "|a1.0, order=0 asc limit=9223372036854775807"},
      {"",
       false, "expected SELECT"},
      {"SELECT SUM(x) FROM sales WHERE supplier.name = 1",
       false, "unknown dimension 'supplier'"},
      {"SELECT SUM(x) FROM sales WHERE TIME.month = 1",
       false, "unknown dimension 'TIME'"},
      {"SELECT SUM(x) FROM sales GROUP BY time.week_2",
       false, "unknown level 'week_2' of dimension 'time'"},
      {"SELECT SUM(x) FROM orders_2024",
       false, "unknown fact table 'orders_2024' (expected 'sales')"},
      {"SELECT SUM(x) FROM sales WHERE time.month = 24",
       false, "expected a value in [0, 24) after =, got '24'"},
      {"SELECT SUM(x) FROM sales WHERE time.month IN (1, 24)",
       false, "expected a value in [0, 24) in the IN list, got '24'"},
      {"SELECT SUM(x) FROM sales WHERE time.month = 99999999999999999999",
       false, "expected a value in [0, 24) after =, got "
       "'99999999999999999999'"},
      {"SELECT SUM(x) FROM sales WHERE time.month = -1",
       false, "expected a value in [0, 24) after =, got '-'"},
      {"SELECT SUM(x) FROM sales GROUP BY time.month ORDER BY 0",
       false, "ORDER BY position 0 is outside the SELECT list (1..1)"},
      {"SELECT SUM(x), COUNT(*) FROM sales GROUP BY time.month ORDER BY 3",
       false, "ORDER BY position 3 is outside the SELECT list (1..2)"},
      {"SELECT SUM(x) FROM sales ORDER BY AVG(x)",
       false, "ORDER BY aggregate is not in the SELECT list"},
      {"SELECT SUM(x) FROM sales GROUP BY time.month ORDER BY 1 LIMIT 0",
       false, "LIMIT must be at least 1"},
      {"SELECT SUM(x) FROM sales GROUP BY time.month ORDER BY 1 LIMIT "
       "99999999999999999999",
       false, "LIMIT 99999999999999999999 does not fit in 64 bits"},
      {"SELECT SUM(x) FROM sales WHERE time.month = 1 EXTRA",
       false, "unexpected trailing input at 'EXTRA'"},
      {"SELECT SUM(x) FROM sales LIMIT 3",
       false, "unexpected trailing input at 'LIMIT'"},
      {"SELECT SUM(x) FROM sales WHERE time.month = 1 ;",
       false, "unexpected trailing input at ';'"},
      {"SELECT SUM(x) FROM sales WHERE time.month = 1 \xc3\xa9",
       false, "unexpected trailing input at '\xc3'"},
      {"SELECT MIN(x) FROM sales",
       false, "MIN/MAX aggregates are not supported (use SUM, COUNT, AVG)"},
      {"SELECT SUM(x FROM sales",
       false, "expected ) closing the aggregate"},
      {"SELECT SUM(x) FROM sales WHERE time month = 1",
       false, "expected . after dimension name"},
      {"SELECT SUM(x) FROM sales WHERE time.month IN 1",
       false, "expected ( after IN"},
      {"SELECT SUM(x) FROM sales WHERE time.month = 1 AND time.year = 0",
       false, "duplicate predicate on dimension 'time'"},
      {"SELECT SUM(x) FROM sales GROUP product.group",
       false, "expected BY after GROUP"},
  };
  for (const LexCase& c : cases) {
    SCOPED_TRACE(c.sql);
    const StatusOr<StarQuery> q = ParseSql(schema_, c.sql);
    ASSERT_EQ(q.ok(), c.ok) << q.status().message();
    if (q.ok()) {
      EXPECT_EQ(Describe(*q), c.expected);
    } else {
      EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(q.status().message(), c.expected);
    }
  }
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
