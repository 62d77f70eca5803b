#ifndef MDW_CORE_RESULT_TABLE_H_
#define MDW_CORE_RESULT_TABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "fragment/star_query.h"

namespace mdw {

/// One group's integer partials. Execution always accumulates the same
/// three integers (row count + both measure sums) regardless of the
/// query's AggregateSpec — AVG and COUNT are derived views, so results
/// stay bit-identical at any worker x shard count and any spec.
struct GroupRow {
  /// Value of the GROUP BY attribute (the group key), ascending unless an
  /// ORDER BY reorders the table. 0 for the degenerate zero-group row of
  /// an ungrouped query.
  std::int64_t key = 0;
  std::int64_t rows = 0;
  std::int64_t units_sold = 0;
  std::int64_t dollar_sales_cents = 0;
  /// How many of `rows` were answered from fragment prefix sums instead
  /// of fact scans. Sums to the execution-wide rows_summarized counter.
  std::int64_t rows_summarized = 0;

  friend bool operator==(const GroupRow& a, const GroupRow& b) = default;
};

/// The functional result of a star query: one row per non-empty group
/// (groups with no matching fact rows are absent, like SQL GROUP BY), in
/// ascending key order unless `order_by` re-sorted and truncated it.
/// An ungrouped query yields exactly one row with key 0 (`group_by`
/// disengaged) — the scalar AggregateResult is this degenerate case.
struct ResultTable {
  AggregateSpec spec;
  std::optional<GroupBy> group_by;
  std::optional<OrderBy> order_by;
  std::vector<GroupRow> rows;

  /// Presentation value of SELECT item `item` in row `i`: the integer sum
  /// or count for SUM/COUNT, sum/rows for AVG. Ordering never uses this —
  /// ties and AVG comparisons are decided in exact integer arithmetic.
  double Value(int i, int item) const;

  friend bool operator==(const ResultTable& a, const ResultTable& b) = default;
};

/// Assembles a ResultTable from execution's per-group partials: keeps
/// `rows` as handed in (callers pass them key-ascending), then applies
/// `order_by` if present — a deterministic partial sort on the ordered
/// item's exact value with ties broken by ascending key, truncated to
/// `limit` rows (limit 0 = keep all).
ResultTable MakeResultTable(AggregateSpec spec, std::optional<GroupBy> group_by,
                            std::optional<OrderBy> order_by,
                            std::vector<GroupRow> rows);

}  // namespace mdw

#endif  // MDW_CORE_RESULT_TABLE_H_
