#ifndef MDW_FRAGMENT_SHARD_ROUTING_H_
#define MDW_FRAGMENT_SHARD_ROUTING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "fragment/query_planner.h"

namespace mdw {

/// A contiguous physical row range [begin, end).
struct RowRange {
  std::int64_t begin = 0;
  std::int64_t end = 0;

  std::int64_t rows() const { return end - begin; }

  friend bool operator==(const RowRange& a, const RowRange& b) = default;
};

/// The work a query plan selects on ONE shard of a sharded,
/// fragment-clustered store: maximal runs of residual fragments to scan,
/// maximal runs of fully-covered fragments answerable from measure
/// summaries, and the fragment counts behind them. Empty fragments
/// contribute to the counts but not to the ranges.
struct ShardSelection {
  std::vector<RowRange> scan;
  std::vector<RowRange> summary;
  /// Group key of each summary run, parallel to `summary`. Populated only
  /// for aligned grouped plans (every fragment of a run shares the key —
  /// runs never coalesce across group boundaries then); -1 otherwise.
  std::vector<std::int64_t> summary_group;
  /// Plan fragments routed to this shard.
  std::int64_t fragments = 0;
  /// Fully-covered ones among them (empty fragments included).
  std::int64_t fragments_covered = 0;

  std::int64_t ScanRows() const {
    std::int64_t rows = 0;
    for (const auto& r : scan) rows += r.rows();
    return rows;
  }

  friend bool operator==(const ShardSelection& a,
                         const ShardSelection& b) = default;
};

/// Routes the plan's fragment set to shards: each selected fragment goes
/// to `shard_of(id)` (in [0, num_shards)), its physical rows [begin, end)
/// come from `rows_of(id)` (a pair), and fully-covered fragments split
/// into summary runs when `summaries_enabled` (otherwise every fragment
/// is scanned). Plans enumerate fragments in ascending id order and a
/// shard lays its fragments out ascending too, so per-shard ranges
/// arrive ascending and physically adjacent selected fragments coalesce
/// into maximal runs — the property that keeps scheduling O(selected
/// fragments) and the per-shard merge order fixed.
///
/// For aligned grouped plans (plan.AlignedGrouping()), summary runs are
/// additionally cut at group boundaries and labelled with their group key
/// in `summary_group`, so a prefix-sum fold credits exactly one group.
/// Scan runs stay maximal: the scan kernel reads the group key per row.
template <typename ShardOf, typename RowsOf>
std::vector<ShardSelection> RouteSelectionToShards(const QueryPlan& plan,
                                                   int num_shards,
                                                   bool summaries_enabled,
                                                   ShardOf&& shard_of,
                                                   RowsOf&& rows_of) {
  MDW_CHECK(num_shards >= 1, "need at least one shard");
  const bool track_groups = plan.AlignedGrouping();
  std::vector<ShardSelection> shards(static_cast<std::size_t>(num_shards));
  plan.ForEachFragment([&](FragId id, bool covered) {
    const int s = shard_of(id);
    MDW_CHECK(s >= 0 && s < num_shards, "shard out of range");
    ShardSelection& sel = shards[static_cast<std::size_t>(s)];
    const bool summarize = summaries_enabled && covered;
    ++sel.fragments;
    if (summarize) ++sel.fragments_covered;  // empty fragments included
    const auto [begin, end] = rows_of(id);
    if (begin == end) return;
    if (summarize) {
      // A summary run's prefix-sum fold credits a single group, so a run
      // must stay inside one group when the plan groups by a (coarser)
      // fragmentation attribute.
      const std::int64_t group = track_groups ? plan.GroupOfFragment(id) : -1;
      if (!sel.summary.empty() && sel.summary.back().end == begin &&
          sel.summary_group.back() == group) {
        sel.summary.back().end = end;
      } else {
        sel.summary.push_back({begin, end});
        sel.summary_group.push_back(group);
      }
      return;
    }
    std::vector<RowRange>& ranges = sel.scan;
    if (!ranges.empty() && ranges.back().end == begin) {
      ranges.back().end = end;
    } else {
      ranges.push_back({begin, end});
    }
  });
  return shards;
}

}  // namespace mdw

#endif  // MDW_FRAGMENT_SHARD_ROUTING_H_
