#include "fragment/plan_cache.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/mini_warehouse.h"
#include "core/warehouse.h"
#include "fragment/shard_routing.h"
#include "fragment/star_query.h"
#include "sched/query_scheduler.h"
#include "schema/apb1.h"

namespace mdw {
namespace {

constexpr std::uint64_t kSeed = 42;

std::vector<FragAttr> MonthGroup() {
  return {{kApb1Time, 2}, {kApb1Product, 3}};
}

Warehouse TinyMaterialized(std::size_t plan_cache_capacity = 256) {
  return Warehouse({.schema = MakeTinyApb1Schema(),
                    .fragmentation = MonthGroup(),
                    .backend = BackendKind::kMaterialized,
                    .seed = kSeed,
                    .plan_cache_capacity = plan_cache_capacity});
}

Warehouse TinySharded(std::size_t plan_cache_capacity = 256,
                      int num_workers = 1) {
  return Warehouse({.schema = MakeTinyApb1Schema(),
                    .fragmentation = MonthGroup(),
                    .backend = BackendKind::kMaterialized,
                    .seed = kSeed,
                    .plan_cache_capacity = plan_cache_capacity,
                    .num_workers = num_workers,
                    .num_shards = 4});
}

// ---------------------------------------------------------------------------
// Canonical signature

TEST(CanonicalQuerySignatureTest, IgnoresQueryName) {
  const StarQuery a("1MONTH", {{kApb1Time, 2, {3}}});
  const StarQuery b("some other label", {{kApb1Time, 2, {3}}});
  EXPECT_EQ(CanonicalQuerySignature(a), CanonicalQuerySignature(b));
}

TEST(CanonicalQuerySignatureTest, IgnoresPredicateAndValueOrder) {
  const StarQuery a("q", {{kApb1Time, 2, {3, 1}}, {kApb1Product, 3, {7}}});
  const StarQuery b("q", {{kApb1Product, 3, {7}}, {kApb1Time, 2, {1, 3}}});
  EXPECT_EQ(CanonicalQuerySignature(a), CanonicalQuerySignature(b));
}

TEST(CanonicalQuerySignatureTest, DistinguishesDimDepthAndValues) {
  const StarQuery base("q", {{kApb1Time, 2, {3}}});
  const StarQuery other_value("q", {{kApb1Time, 2, {4}}});
  const StarQuery other_depth("q", {{kApb1Time, 1, {3}}});
  const StarQuery other_dim("q", {{kApb1Product, 2, {3}}});
  const StarQuery more_values("q", {{kApb1Time, 2, {3, 4}}});
  EXPECT_NE(CanonicalQuerySignature(base),
            CanonicalQuerySignature(other_value));
  EXPECT_NE(CanonicalQuerySignature(base),
            CanonicalQuerySignature(other_depth));
  EXPECT_NE(CanonicalQuerySignature(base),
            CanonicalQuerySignature(other_dim));
  EXPECT_NE(CanonicalQuerySignature(base),
            CanonicalQuerySignature(more_values));
}

TEST(CanonicalQuerySignatureTest, MultiDigitValuesDoNotCollide) {
  // d0@2:12; must differ from d0@2:1,2; — the separators guarantee it.
  const StarQuery a("q", {{kApb1Time, 2, {12}}});
  const StarQuery b("q", {{kApb1Time, 2, {1, 2}}});
  EXPECT_NE(CanonicalQuerySignature(a), CanonicalQuerySignature(b));
}

// ---------------------------------------------------------------------------
// PlanCache behaviour

class PlanCacheTest : public ::testing::Test {
 protected:
  PlanCacheTest()
      : schema_(std::make_shared<const StarSchema>(MakeTinyApb1Schema())),
        fragmentation_(std::make_shared<const Fragmentation>(schema_.get(),
                                                             MonthGroup())),
        planner_(schema_, fragmentation_) {}

  std::shared_ptr<const StarSchema> schema_;
  std::shared_ptr<const Fragmentation> fragmentation_;
  QueryPlanner planner_;
};

TEST_F(PlanCacheTest, HitsAndMissesAreCounted) {
  PlanCache cache(8);
  const auto q = apb1_queries::OneMonth(3);
  EXPECT_EQ(cache.Lookup(q), nullptr);

  const auto first = cache.GetOrPlan(q, planner_);
  const auto second = cache.GetOrPlan(q, planner_);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());  // same cached object

  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // the Lookup and the first GetOrPlan
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 8u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0 / 3.0);
}

TEST_F(PlanCacheTest, HitDoesNotInvokeThePlanner) {
  PlanCache cache(8);
  const auto q = apb1_queries::OneQuarter(2);
  cache.GetOrPlan(q, planner_);
  const auto before = QueryPlanner::LifetimePlanCount();
  cache.GetOrPlan(q, planner_);
  EXPECT_EQ(QueryPlanner::LifetimePlanCount(), before);
}

TEST_F(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  const auto a = apb1_queries::OneMonth(1);
  const auto b = apb1_queries::OneMonth(2);
  const auto c = apb1_queries::OneMonth(3);

  cache.GetOrPlan(a, planner_);
  cache.GetOrPlan(b, planner_);
  cache.GetOrPlan(a, planner_);  // touch a, making b the LRU entry
  cache.GetOrPlan(c, planner_);  // evicts b

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.Lookup(a), nullptr);
  EXPECT_EQ(cache.Lookup(b), nullptr);
  EXPECT_NE(cache.Lookup(c), nullptr);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST_F(PlanCacheTest, EvictedPlanStaysValid) {
  std::shared_ptr<const QueryPlan> plan;
  {
    PlanCache cache(1);
    plan = cache.GetOrPlan(apb1_queries::OneMonth(1), planner_);
    cache.GetOrPlan(apb1_queries::OneMonth(2), planner_);  // evicts it
    EXPECT_EQ(cache.stats().evictions, 1u);
  }
  // The plan outlives both its eviction and the cache itself.
  EXPECT_EQ(plan->query_class(), QueryClass::kQ1);
  EXPECT_GT(plan->FragmentCount(), 0);
}

TEST_F(PlanCacheTest, ClearDropsEntriesButKeepsCounters) {
  PlanCache cache(8);
  cache.GetOrPlan(apb1_queries::OneMonth(1), planner_);
  cache.GetOrPlan(apb1_queries::OneMonth(1), planner_);
  cache.Clear();
  const auto stats = cache.stats();
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// ---------------------------------------------------------------------------
// Warehouse wiring: shared across copies, observable via stats

TEST(WarehousePlanCacheTest, RepeatedExecutionHitsTheCache) {
  const Warehouse wh = TinyMaterialized();
  const auto q = apb1_queries::OneMonthOneGroup(3, 7);
  wh.Execute(q);
  wh.Execute(q);
  wh.Execute(q);
  const auto stats = wh.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.capacity, 256u);
}

TEST(WarehousePlanCacheTest, CopiesShareOneCache) {
  const Warehouse original = TinyMaterialized();
  const Warehouse copy = original;
  const auto q = apb1_queries::OneQuarter(1);

  original.Execute(q);        // miss, inserts
  copy.Execute(q);            // hit through the shared cache
  EXPECT_EQ(copy.plan_cache_stats().hits, 1u);
  EXPECT_EQ(original.plan_cache_stats().hits, 1u);
  EXPECT_EQ(original.plan_cache_stats().misses, 1u);

  // PlanShared returns the very same cached object through either copy.
  EXPECT_EQ(original.PlanShared(q).get(), copy.PlanShared(q).get());
}

TEST(WarehousePlanCacheTest, ZeroCapacityDisablesCaching) {
  const Warehouse wh = TinyMaterialized(/*plan_cache_capacity=*/0);
  const auto q = apb1_queries::OneMonth(3);
  const auto before = QueryPlanner::LifetimePlanCount();
  wh.Execute(q);
  wh.Execute(q);
  EXPECT_EQ(QueryPlanner::LifetimePlanCount(), before + 2);
  const auto stats = wh.plan_cache_stats();
  EXPECT_EQ(stats.capacity, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

// ---------------------------------------------------------------------------
// Route memo: a plan routes once per store layout, and what it memoizes
// is exactly the route.

// Fragment coverage is mixed: group 0 holds classes 0 and 1 (covered),
// group 1 only class 2 of its two (residual).
StarQuery MixedCoverage() {
  return StarQuery("MIXED",
                   {{kApb1Product, 4, {0, 1, 2}}, {kApb1Time, 1, {1}}});
}

// A reduced APB-1 sweep over {time.month, product.group}: single- and
// multi-fragment, covered, residual and mixed shapes, ungrouped and
// grouped at a fragmentation level, above one (both aligned) and below
// one or off the fragmentation (both forcing the scan path).
std::vector<StarQuery> RouteSweep() {
  std::vector<StarQuery> queries = {
      apb1_queries::OneMonthOneGroup(3, 7),
      apb1_queries::OneMonth(5),
      apb1_queries::OneQuarter(2),
      apb1_queries::OneCode(30),
      apb1_queries::OneCodeOneMonth(30, 3),
      apb1_queries::OneStore(17),
      apb1_queries::OneGroupOneStore(7, 17),
      StarQuery("IN_LIST",
                {{kApb1Product, 5, {1, 2, 50}}, {kApb1Time, 2, {0, 6}}}),
      MixedCoverage(),
  };
  for (const GroupBy group_by :
       {GroupBy{kApb1Time, 2}, GroupBy{kApb1Product, 2},
        GroupBy{kApb1Product, 5}, GroupBy{kApb1Customer, 1}}) {
    queries.push_back(apb1_queries::OneQuarter(2).WithGroupBy(group_by));
    queries.push_back(MixedCoverage().WithGroupBy(group_by));
  }
  return queries;
}

// A store with a planner for it, wired as Warehouse wires them: the
// fragmentation references the store's own schema.
struct Store {
  std::shared_ptr<const MiniWarehouse> mini;
  QueryPlanner planner;
};

Store MakeStore(int num_shards, bool summaries = true) {
  auto mini = std::make_shared<const MiniWarehouse>(
      MakeTinyApb1Schema(), kSeed, MonthGroup(), summaries, num_shards);
  auto schema = std::shared_ptr<const StarSchema>(mini, &mini->schema());
  auto frag =
      std::make_shared<const Fragmentation>(&mini->schema(), MonthGroup());
  return {mini, QueryPlanner(std::move(schema), std::move(frag))};
}

// Whether execution splits summary runs off for `plan` on `mini`.
bool UsesSummaries(const MiniWarehouse& mini, const QueryPlan& plan) {
  return mini.summaries_enabled() &&
         (!plan.grouped() || plan.AlignedGrouping());
}

std::vector<ShardSelection> RouteThroughAccessors(const MiniWarehouse& mini,
                                                  const QueryPlan& plan) {
  return RouteSelectionToShards(
      plan, mini.num_shards(), UsesSummaries(mini, plan),
      [&mini](FragId id) { return mini.ShardOfFragment(id); },
      [&mini](FragId id) { return mini.FragmentRows(id); });
}

TEST(RouteMemoTest, MemoizedRouteIsTheRoute) {
  const ThreadPool pool(2);
  for (const int shards : {1, 4}) {
    for (const bool summaries : {true, false}) {
      const Store store = MakeStore(shards, summaries);
      const MiniWarehouse& mini = *store.mini;
      PlanCache cache(64);
      for (const StarQuery& query : RouteSweep()) {
        SCOPED_TRACE(query.name() + " shards=" + std::to_string(shards) +
                     " summaries=" + std::to_string(summaries) +
                     (query.grouped() ? " grouped" : ""));
        const auto plan = cache.GetOrPlan(query, store.planner);
        const auto first = mini.ExecuteWithPlan(query, *plan);
        const auto second =
            mini.ExecuteWithPlan(query, *cache.GetOrPlan(query, store.planner));
        const auto parallel = mini.ExecuteWithPlan(query, *plan, &pool);
        const auto fresh =
            mini.ExecuteWithPlan(query, store.planner.Plan(query));
        // Whole records: every ExecStats field, the per-shard split and
        // the groups.
        EXPECT_EQ(first, second);
        EXPECT_EQ(second, fresh);
        EXPECT_EQ(parallel, fresh);
        EXPECT_EQ(first.result, mini.ExecuteFullScan(query));

        const bool use_summaries = UsesSummaries(mini, *plan);
        const QueryPlan::Route route =
            plan->MemoizedRoute(mini.layout_id(), use_summaries);
        if (plan->FragmentCount() == 1) {
          EXPECT_EQ(route, nullptr);  // the direct path never routes
          continue;
        }
        ASSERT_NE(route, nullptr);
        EXPECT_EQ(*route, RouteThroughAccessors(mini, *plan));
        // The key includes the summaries flag and the layout.
        EXPECT_EQ(plan->MemoizedRoute(mini.layout_id(), !use_summaries),
                  nullptr);
        EXPECT_EQ(plan->MemoizedRoute(mini.layout_id() + 1000, use_summaries),
                  nullptr);
      }
    }
  }
}

TEST(RouteMemoTest, LayoutIdsAreProcessUnique) {
  const Store a = MakeStore(4);
  const Store b = MakeStore(4);
  EXPECT_GE(a.mini->layout_id(), 1u);
  EXPECT_NE(a.mini->layout_id(), b.mini->layout_id());
}

TEST(RouteMemoTest, ForeignPlanIsRejectedBeforeItsMemoIsRead) {
  // A plan runs only on the store whose schema it was derived from, so a
  // route memoized for one store can never be read by another.
  const Store home = MakeStore(4);
  const Store other = MakeStore(4);
  const auto query = apb1_queries::OneQuarter(2);
  const QueryPlan plan = home.planner.Plan(query);
  home.mini->ExecuteWithPlan(query, plan);
  ASSERT_NE(plan.MemoizedRoute(home.mini->layout_id(), true), nullptr);
  EXPECT_DEATH(other.mini->ExecuteWithPlan(query, plan), "clustering");
}

TEST(RouteMemoTest, CopiesOfAPlanShareItsMemo) {
  const Store store = MakeStore(4);
  const auto query = apb1_queries::OneQuarter(2);
  const QueryPlan plan = store.planner.Plan(query);
  const QueryPlan copy = plan;
  const auto before = QueryPlan::LifetimeRouteCount();
  const auto expected = store.mini->ExecuteWithPlan(query, plan);
  EXPECT_EQ(store.mini->ExecuteWithPlan(query, copy), expected);
  EXPECT_EQ(QueryPlan::LifetimeRouteCount() - before, 1u);
  EXPECT_EQ(copy.MemoizedRoute(store.mini->layout_id(), true),
            plan.MemoizedRoute(store.mini->layout_id(), true));
}

TEST(RouteMemoTest, EvictedPlanExecutesCorrectlyAndRoutesOnceAgain) {
  const Warehouse wh = TinySharded(/*plan_cache_capacity=*/1);
  const auto a = apb1_queries::OneQuarter(2);
  const auto b = apb1_queries::OneMonth(5);
  const auto before = QueryPlan::LifetimeRouteCount();
  const QueryOutcome expected = wh.Execute(a);
  const std::shared_ptr<const QueryPlan> held = wh.PlanShared(a);
  EXPECT_EQ(wh.Execute(a), expected);
  EXPECT_EQ(QueryPlan::LifetimeRouteCount() - before, 1u);

  wh.Execute(b);  // evicts a's plan
  EXPECT_EQ(wh.plan_cache_stats().evictions, 1u);
  EXPECT_EQ(QueryPlan::LifetimeRouteCount() - before, 2u);

  // The evicted plan keeps its memo; the re-derived one routes once.
  EXPECT_EQ(wh.materialized()->ExecuteWithPlan(a, *held),
            wh.materialized()->ExecuteWithPlan(a, wh.Plan(a)));
  EXPECT_EQ(wh.Execute(a), expected);
  EXPECT_EQ(wh.Execute(a), expected);
  EXPECT_EQ(QueryPlan::LifetimeRouteCount() - before, 3u);
}

TEST(RouteMemoTest, WarehouseCopiesShareOneMemo) {
  const Warehouse original = TinySharded();
  const Warehouse copy = original;
  const auto q = apb1_queries::OneQuarter(2);
  const auto before = QueryPlan::LifetimeRouteCount();
  const QueryOutcome expected = original.Execute(q);
  EXPECT_EQ(copy.Execute(q), expected);
  // ExecuteBatch and Serve run on copies of the cached plan, which share
  // its memo.
  const std::vector<StarQuery> batch = {q, q, q};
  for (const QueryOutcome& outcome : copy.ExecuteBatch(batch).queries) {
    EXPECT_EQ(outcome, expected);
  }
  const std::vector<Arrival> arrivals = {{0, 0, q}, {5, 1, q}, {9, 0, q}};
  const BatchOutcome served = original.Serve(arrivals, ServingConfig{});
  ASSERT_EQ(served.queries.size(), arrivals.size());
  for (const QueryOutcome& outcome : served.queries) {
    EXPECT_EQ(outcome, expected);
  }
  EXPECT_EQ(QueryPlan::LifetimeRouteCount() - before, 1u);
  EXPECT_NE(copy.PlanShared(q)->MemoizedRoute(
                original.materialized()->layout_id(), true),
            nullptr);
}

TEST(RouteMemoTest, DegradedRunOfAMemoizedPlanEqualsAFreshPlan) {
  const Store store = MakeStore(4);
  const MiniWarehouse& mini = *store.mini;
  ExecOptions degraded;
  degraded.covered_only = true;
  for (const StarQuery& query :
       {MixedCoverage(), MixedCoverage().WithGroupBy({kApb1Product, 2}),
        apb1_queries::OneQuarter(2)}) {
    SCOPED_TRACE(query.name() + (query.grouped() ? " grouped" : ""));
    const QueryPlan plan = store.planner.Plan(query);
    const auto full = mini.ExecuteWithPlan(query, plan);  // memoizes
    ASSERT_NE(plan.MemoizedRoute(mini.layout_id(), true), nullptr);
    const auto memoized =
        mini.ExecuteWithPlan(query, plan, nullptr, nullptr, degraded);
    const auto fresh = mini.ExecuteWithPlan(query, store.planner.Plan(query),
                                            nullptr, nullptr, degraded);
    EXPECT_EQ(memoized, fresh);
    EXPECT_TRUE(memoized.degraded);
    EXPECT_EQ(memoized.rows_scanned, 0);
    EXPECT_EQ(memoized.rows_summarized, full.rows_summarized);

    // A degraded first execution memoizes the full route: a later full
    // execution still scans the residual fragments.
    const QueryPlan degraded_first = store.planner.Plan(query);
    EXPECT_EQ(
        mini.ExecuteWithPlan(query, degraded_first, nullptr, nullptr, degraded),
        fresh);
    EXPECT_EQ(mini.ExecuteWithPlan(query, degraded_first), full);
  }
}

// In the style of PlanFirstCountingTest: N executions of one cached plan
// route once; without a cache every execution derives and routes.
TEST(RouteMemoTest, NExecutionsOfOneCachedPlanRouteOnce) {
  const Warehouse wh = TinySharded();
  const auto q = apb1_queries::OneQuarter(2);
  constexpr int kN = 6;
  const auto before = QueryPlan::LifetimeRouteCount();
  for (int i = 0; i < kN; ++i) wh.Execute(q);
  EXPECT_EQ(QueryPlan::LifetimeRouteCount() - before, 1u);
  // A single-fragment plan takes the direct path and never routes.
  for (int i = 0; i < kN; ++i) wh.Execute(apb1_queries::OneMonthOneGroup(3, 7));
  EXPECT_EQ(QueryPlan::LifetimeRouteCount() - before, 1u);
}

TEST(RouteMemoTest, ZeroCapacityCacheRoutesEveryExecution) {
  const Warehouse wh = TinySharded(/*plan_cache_capacity=*/0);
  const auto q = apb1_queries::OneQuarter(2);
  constexpr int kN = 6;
  const auto before = QueryPlan::LifetimeRouteCount();
  for (int i = 0; i < kN; ++i) wh.Execute(q);
  EXPECT_EQ(QueryPlan::LifetimeRouteCount() - before,
            static_cast<std::uint64_t>(kN));
}

// ---------------------------------------------------------------------------
// The plan cache and the route memo under threads: copies of one
// Warehouse on 8 threads share its cache and its memos, and every
// outcome equals the serial one.

std::vector<std::string> ThreadStatements() {
  return {
      "SELECT SUM(UnitsSold) FROM tiny_sales "
      "WHERE time.month = 3 AND product.group = 7",
      "SELECT SUM(UnitsSold), SUM(DollarSales) FROM tiny_sales "
      "WHERE time.month = 5",
      "SELECT COUNT(*) FROM tiny_sales WHERE time.quarter = 2",
      "SELECT SUM(DollarSales) FROM tiny_sales WHERE product.code = 30",
      "SELECT SUM(UnitsSold) FROM tiny_sales "
      "WHERE product.code = 30 AND time.month = 3",
      "SELECT AVG(UnitsSold) FROM tiny_sales WHERE customer.store = 17",
      "SELECT SUM(UnitsSold) FROM tiny_sales "
      "WHERE product.group = 7 AND customer.store = 17",
      "SELECT SUM(UnitsSold) FROM tiny_sales "
      "WHERE product.code IN (1, 2, 50) AND time.month IN (0, 6)",
      "SELECT SUM(UnitsSold) FROM tiny_sales "
      "WHERE product.class IN (0, 1, 2) AND time.quarter = 1",
      "SELECT SUM(UnitsSold) FROM tiny_sales WHERE time.quarter = 2 "
      "GROUP BY time.month",
      "SELECT SUM(DollarSales), COUNT(*) FROM tiny_sales WHERE time.month = 5 "
      "GROUP BY product.family ORDER BY 1 DESC LIMIT 3",
      "SELECT SUM(UnitsSold) FROM tiny_sales WHERE time.quarter = 2 "
      "GROUP BY product.code ORDER BY SUM(UnitsSold) LIMIT 5",
      "SELECT COUNT(*) FROM tiny_sales WHERE time.month = 5 "
      "GROUP BY customer.store",
      "SELECT SUM(UnitsSold) FROM tiny_sales WHERE product.class IN (0, 1, 2) "
      "GROUP BY product.group",
      "SELECT SUM(UnitsSold) FROM tiny_sales GROUP BY time.quarter",
      "SELECT * FROM tiny_sales WHERE channel.channel = 1",
      "SELECT SUM(UnitsSold) FROM tiny_sales "
      "WHERE time.year = 0 AND product.family = 3",
      "select sum(unitssold) from TINY_SALES where time.month in (1, 2, 3)",
      "SELECT SUM(UnitsSold) FROM tiny_sales WHERE time.month = 12",
      "SELECT SUM(UnitsSold) FROM sales",
  };
}

void ExpectSameOutcome(const StatusOr<QueryOutcome>& got,
                       const StatusOr<QueryOutcome>& want) {
  ASSERT_EQ(got.ok(), want.ok());
  if (want.ok()) {
    EXPECT_EQ(*got, *want);
  } else {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

// Runs every statement kRounds times on each of 8 threads, each thread
// in its own rotated order on its own copy of `shared`, and checks every
// outcome against a serial run on a separate warehouse.
void RunOnEightThreads(const Warehouse& shared) {
  const std::vector<std::string> statements = ThreadStatements();
  const std::size_t n = statements.size();
  const Warehouse reference = TinySharded();
  std::vector<StatusOr<QueryOutcome>> expected;
  for (const std::string& sql : statements) {
    expected.push_back(reference.ExecuteSql(sql));
  }

  constexpr int kThreads = 8;
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<StatusOr<QueryOutcome>>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&statements, &got, n, t, wh = shared] {
      auto& out = got[static_cast<std::size_t>(t)];
      out.assign(kRounds * n, Status::InvalidArgument("not run"));
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t s = (i + 3 * static_cast<std::size_t>(t) + r) % n;
          out[r * n + s] = wh.ExecuteSql(statements[s]);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < kRounds * n; ++k) {
      SCOPED_TRACE("thread " + std::to_string(t) + ": " + statements[k % n]);
      ExpectSameOutcome(got[static_cast<std::size_t>(t)][k], expected[k % n]);
    }
  }
}

TEST(PlanCacheThreadsTest, CopiesOnEightThreadsMatchASerialRun) {
  const Warehouse shared = TinySharded(/*plan_cache_capacity=*/256,
                                       /*num_workers=*/2);
  RunOnEightThreads(shared);
  // Every valid statement was planned once and then hit, give or take
  // the derivations racing threads may repeat.
  EXPECT_GT(shared.plan_cache_stats().hits, 0u);
  EXPECT_EQ(shared.plan_cache_stats().size, ThreadStatements().size() - 2);
}

TEST(PlanCacheThreadsTest, EvictionChurnOnEightThreadsMatchesASerialRun) {
  // Four entries for eighteen valid statements: plans are evicted and
  // re-derived, and fresh memos published, while other threads run them.
  const Warehouse shared = TinySharded(/*plan_cache_capacity=*/4,
                                       /*num_workers=*/2);
  RunOnEightThreads(shared);
  EXPECT_GT(shared.plan_cache_stats().evictions, 0u);
}

}  // namespace
}  // namespace mdw
