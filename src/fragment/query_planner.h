#ifndef MDW_FRAGMENT_QUERY_PLANNER_H_
#define MDW_FRAGMENT_QUERY_PLANNER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "fragment/fragmentation.h"
#include "fragment/star_query.h"

namespace mdw {

struct ShardSelection;  // fragment/shard_routing.h

/// The paper's four basic query types with respect to a fragmentation F
/// (Sec. 4.2), plus the unsupported case.
enum class QueryClass {
  kQ1,          ///< only fragmentation attributes (at their exact level)
  kQ2,          ///< lower-level attributes of fragmentation dimensions
  kQ3,          ///< higher-level attributes of fragmentation dimensions
  kQ4,          ///< mixed: lower *and* higher level on >= 2 frag dimensions
  kUnsupported  ///< no fragmentation dimension referenced at all
};

/// The paper's I/O overhead classes (Sec. 4.5).
enum class IoClass {
  kIoc1Opt,      ///< clustered hits, no bitmap access, single fragment
  kIoc1,         ///< clustered hits, no bitmap access
  kIoc2,         ///< spread hits, bitmap I/O required
  kIoc2NoSupp    ///< all fragments and all referenced bitmaps processed
};

const char* ToString(QueryClass c);
const char* ToString(IoClass c);

/// How one query predicate is evaluated under a fragmentation
/// (Sec. 4.3, step 2).
struct PredicateAccess {
  DimId dim = -1;
  Depth depth = -1;
  /// True iff a bitmap must be read for this predicate: the dimension is
  /// not in F, or it is in F but the predicate is on a *lower* (finer)
  /// level than the fragmentation attribute.
  bool needs_bitmap = false;
  /// Bitmaps read per fragment *per predicate value*: the encoded prefix
  /// (or the suffix below the fragmentation level), or 1 for simple
  /// indices.
  int bitmaps_read = 0;
};

/// The fragments a query must process, represented as one value-slice per
/// fragmentation attribute (the cross product of the slices), plus the
/// access classification. Fragment sets are enumerated lazily because the
/// cross product can be large.
///
/// Coverage classification: a selected fragment is *fully covered* when
/// every row it can contain satisfies all the query's predicates — a fact
/// decidable from the fragmentation attributes and hierarchy ancestors
/// alone, with no data access. Coverage factorises over the slices
/// (`covered(i)[j]` marks the j-th slice value of attribute i), so a
/// fragment is covered iff all its coordinates are and no predicate falls
/// outside the fragmentation dimensions (`coverable()`). Fully-covered
/// fragments can be answered from precomputed measure summaries; the rest
/// are *residual* and need a row scan.
class QueryPlan {
 public:
  /// The plan shares ownership of the fragmentation, so it stays valid
  /// even if the planner (or the façade that produced it) is destroyed.
  /// `covered` carries the per-slice coverage flags (same shape as
  /// `slices`); an empty `covered` marks every fragment residual, the
  /// conservative default for hand-built plans.
  QueryPlan(std::shared_ptr<const Fragmentation> fragmentation,
            std::vector<std::vector<std::int64_t>> slices,
            QueryClass query_class, IoClass io_class,
            std::vector<PredicateAccess> accesses, double selectivity,
            std::vector<std::vector<bool>> covered = {},
            bool coverable = false, std::optional<GroupBy> group_by = {});

  const Fragmentation& fragmentation() const { return *fragmentation_; }
  QueryClass query_class() const { return query_class_; }
  IoClass io_class() const { return io_class_; }
  const std::vector<PredicateAccess>& accesses() const { return accesses_; }

  /// Value slice of the i-th fragmentation attribute.
  const std::vector<std::int64_t>& slice(int i) const;

  /// Number of fragments to be processed (product of slice sizes).
  std::int64_t FragmentCount() const;

  /// True iff any predicate needs bitmap access.
  bool NeedsBitmaps() const;
  /// Total bitmaps read per fragment (sum over predicates and values).
  int BitmapsPerFragment() const;

  /// Overall query selectivity on the fact table.
  double selectivity() const { return selectivity_; }
  /// Expected hit rows over the whole query.
  double ExpectedHits() const;
  /// Expected hit rows in one processed fragment.
  double HitsPerFragment() const;
  /// Fraction of a processed fragment's rows that are hits.
  double FragmentSelectivity() const;

  /// ---- Coverage classification ----

  /// False when some predicate lies outside the fragmentation dimensions,
  /// so every selected fragment needs a row scan regardless of its
  /// coordinates.
  bool coverable() const { return coverable_; }
  /// Coverage flags of the i-th slice, parallel to slice(i):
  /// covered(i)[j] iff the predicate on attribute i (if any) is satisfied
  /// by every row whose attribute-i coordinate is slice(i)[j].
  const std::vector<bool>& covered(int i) const;
  /// Number of fully-covered fragments in the selected set (product of
  /// per-attribute covered counts; 0 when !coverable()).
  std::int64_t CoveredFragmentCount() const;

  /// ---- Grouping classification ----

  bool grouped() const { return group_by_.has_value(); }
  const std::optional<GroupBy>& group_by() const { return group_by_; }
  /// Index of the fragmentation attribute the grouping *aligns* with
  /// (same dimension, group depth at or above the fragmentation depth),
  /// or -1. Aligned groups partition the fragment set, so covered
  /// fragments feed their prefix-sum partials straight into their group;
  /// non-aligned groups force the residual scan path with per-row keys.
  int group_attr() const { return group_attr_; }
  bool AlignedGrouping() const { return group_attr_ >= 0; }
  /// Cardinality of the GROUP BY attribute (0 when ungrouped) — the dense
  /// key domain of execution's per-chunk group accumulators.
  std::int64_t group_card() const { return group_card_; }
  /// Leaves per GROUP BY value: a fact row's key is leaf / leaves_per.
  std::int64_t group_leaves_per() const { return group_leaves_per_; }
  /// Group key of a fragment (requires AlignedGrouping()): the ancestor
  /// of its coordinate on the aligned attribute at the GROUP BY depth.
  std::int64_t GroupOfFragment(FragId id) const;

  /// Enumerates the fragment ids to process, in allocation order
  /// (ascending id), calling `fn(id)` — or `fn(id, covered)` when `fn`
  /// takes two arguments, additionally reporting whether the fragment is
  /// fully covered (answerable without touching its rows).
  template <typename Fn>
  void ForEachFragment(Fn&& fn) const;

  /// Materialises the fragment ids; aborts if more than `cap` fragments
  /// (guard against accidentally exploding cross products).
  std::vector<FragId> MaterializeFragments(
      std::int64_t cap = 1'000'000) const;

  /// ---- Routing memo ----
  ///
  /// On one store layout a plan's fragments route to the same shard
  /// selections on every execution, so the plan carries one memo slot
  /// for them. The slot is created with the plan and shared by all its
  /// copies, so the copies Warehouse::ExecuteBatch and Serve make of a
  /// cached plan hit it too. Its key is the executing store's
  /// process-unique layout id plus whether summary runs were split off;
  /// publishing under another key replaces the entry.

  /// Routed selections, index = shard; immutable once published.
  using Route = std::shared_ptr<const std::vector<ShardSelection>>;
  /// The selections memoized for (layout, summaries), or nullptr.
  Route MemoizedRoute(std::uint64_t layout, bool summaries) const;
  /// Publishes the complete `route` for (layout, summaries). Thread-safe:
  /// a concurrent MemoizedRoute sees the previous entry or this one,
  /// never a partial one.
  void MemoizeRoute(std::uint64_t layout, bool summaries, Route route) const;
  /// Process-wide number of MemoizeRoute() calls, i.e. executions that
  /// missed the memo and routed; tests assert on deltas of this counter,
  /// like QueryPlanner::LifetimePlanCount().
  static std::uint64_t LifetimeRouteCount();

 private:
  struct RouteMemo;

  std::shared_ptr<const Fragmentation> fragmentation_;
  std::vector<std::vector<std::int64_t>> slices_;
  QueryClass query_class_;
  IoClass io_class_;
  std::vector<PredicateAccess> accesses_;
  double selectivity_;
  /// Parallel to slices_; empty-constructed plans normalise to all-false.
  std::vector<std::vector<bool>> covered_;
  bool coverable_ = false;
  std::optional<GroupBy> group_by_;
  int group_attr_ = -1;
  std::int64_t group_card_ = 0;
  std::int64_t group_leaves_per_ = 1;
  /// Mixed-radix helpers for GroupOfFragment: product of attribute
  /// cardinalities after group_attr_, and descendants per group value at
  /// the fragmentation depth.
  std::int64_t group_suffix_ = 1;
  std::int64_t group_desc_per_ = 1;
  /// Never null; shared by copies of the plan.
  std::shared_ptr<RouteMemo> route_memo_;
};

template <typename Fn>
void QueryPlan::ForEachFragment(Fn&& fn) const {
  constexpr bool kWithCoverage = std::is_invocable_v<Fn&, FragId, bool>;
  static_assert(kWithCoverage || std::is_invocable_v<Fn&, FragId>,
                "ForEachFragment needs fn(FragId) or fn(FragId, bool)");
  const auto emit = [&fn](FragId id, bool covered) {
    if constexpr (kWithCoverage) {
      fn(id, covered);
    } else {
      fn(id);
    }
  };
  const int n = fragmentation_->num_attrs();
  if (n == 0) {
    emit(0, coverable_);
    return;
  }
  // Mixed-radix odometer over the slices, producing ascending fragment ids
  // because slices are sorted and later attributes vary fastest. Its state
  // lives on the stack (Fragmentation bounds the attribute count).
  std::array<std::size_t, Fragmentation::kMaxAttrs> cursor{};
  std::array<std::int64_t, Fragmentation::kMaxAttrs> card{};
  for (int i = 0; i < n; ++i) {
    const auto u = static_cast<std::size_t>(i);
    if (slices_[u].empty()) return;  // an empty slice selects nothing
    card[u] = fragmentation_->CardOf(i);
  }
  while (true) {
    FragId id = 0;
    bool covered = coverable_;
    for (std::size_t u = 0; u < static_cast<std::size_t>(n); ++u) {
      const std::int64_t c = slices_[u][cursor[u]];
      MDW_CHECK(c >= 0 && c < card[u],
                "coordinate out of range");  // as FragmentIdOf enforces
      id = id * card[u] + c;
      covered = covered && covered_[u][cursor[u]];
    }
    emit(id, covered);
    int i = n - 1;
    while (i >= 0) {
      auto& c = cursor[static_cast<std::size_t>(i)];
      if (++c < slices_[static_cast<std::size_t>(i)].size()) break;
      c = 0;
      --i;
    }
    if (i < 0) break;
  }
}

/// Derives QueryPlans from StarQueries for a fixed fragmentation,
/// implementing Sec. 4.2 (query classes), Sec. 4.3 step 1-2 (fragment set
/// and bitmap requirements) and Sec. 4.5 (I/O classes).
class QueryPlanner {
 public:
  /// The planner shares ownership of schema and fragmentation; plans it
  /// produces keep the fragmentation alive on their own.
  QueryPlanner(std::shared_ptr<const StarSchema> schema,
               std::shared_ptr<const Fragmentation> fragmentation);

  /// Compatibility: borrows caller-owned schema/fragmentation.
  QueryPlanner(const StarSchema* schema, const Fragmentation* fragmentation);

  QueryPlan Plan(const StarQuery& query) const;

  /// Process-wide number of Plan() invocations across all planners. This
  /// is the observability hook behind the plan-first pipeline's guarantee
  /// that a batch of N queries costs exactly N derivations end to end
  /// (see docs/ARCHITECTURE.md); tests assert on deltas of this counter.
  static std::uint64_t LifetimePlanCount();

 private:
  std::shared_ptr<const StarSchema> schema_;
  std::shared_ptr<const Fragmentation> fragmentation_;
};

}  // namespace mdw

#endif  // MDW_FRAGMENT_QUERY_PLANNER_H_
