#include "core/result_table.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace mdw {

namespace {

std::int64_t SumOf(const GroupRow& row, const AggItem& item) {
  if (item.fn == AggFn::kCount) return row.rows;
  return item.measure == MeasureId::kUnitsSold ? row.units_sold
                                               : row.dollar_sales_cents;
}

/// Exact three-way comparison of item values in rows `a` and `b`:
/// negative when a < b. SUM/COUNT compare int64 directly; AVG compares
/// the rationals sum_a/rows_a vs sum_b/rows_b by 128-bit cross
/// multiplication (rows > 0 for every emitted group), so ordering never
/// depends on floating-point rounding.
int CompareItem(const GroupRow& a, const GroupRow& b, const AggItem& item) {
  const std::int64_t sa = SumOf(a, item);
  const std::int64_t sb = SumOf(b, item);
  if (item.fn != AggFn::kAvg) {
    return sa < sb ? -1 : (sa > sb ? 1 : 0);
  }
  const __int128 lhs = static_cast<__int128>(sa) * b.rows;
  const __int128 rhs = static_cast<__int128>(sb) * a.rows;
  return lhs < rhs ? -1 : (lhs > rhs ? 1 : 0);
}

}  // namespace

double ResultTable::Value(int i, int item) const {
  MDW_CHECK(i >= 0 && i < static_cast<int>(rows.size()),
            "ResultTable row out of range");
  MDW_CHECK(item >= 0 && item < static_cast<int>(spec.items.size()),
            "ResultTable item out of range");
  const GroupRow& row = rows[i];
  const AggItem& it = spec.items[item];
  const double sum = static_cast<double>(SumOf(row, it));
  if (it.fn == AggFn::kAvg) {
    return row.rows == 0 ? 0.0 : sum / static_cast<double>(row.rows);
  }
  return sum;
}

ResultTable MakeResultTable(AggregateSpec spec, std::optional<GroupBy> group_by,
                            std::optional<OrderBy> order_by,
                            std::vector<GroupRow> rows) {
  ResultTable table{std::move(spec), group_by, order_by, std::move(rows)};
  if (!order_by.has_value()) return table;
  MDW_CHECK(order_by->item >= 0 &&
                order_by->item < static_cast<int>(table.spec.items.size()),
            "ORDER BY item out of range of the aggregate spec");
  const AggItem item = table.spec.items[order_by->item];
  const bool desc = order_by->descending;
  const auto less = [item, desc](const GroupRow& a, const GroupRow& b) {
    const int cmp = CompareItem(a, b, item);
    if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
    return a.key < b.key;  // stable, direction-independent tie-break
  };
  const std::int64_t limit = order_by->limit;
  if (limit > 0 && limit < static_cast<std::int64_t>(table.rows.size())) {
    // Deterministic top-k: heap-select the k best, then emit in order.
    std::partial_sort(table.rows.begin(), table.rows.begin() + limit,
                      table.rows.end(), less);
    table.rows.resize(static_cast<std::size_t>(limit));
  } else {
    std::sort(table.rows.begin(), table.rows.end(), less);
  }
  return table;
}

}  // namespace mdw
