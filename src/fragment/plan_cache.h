#ifndef MDW_FRAGMENT_PLAN_CACHE_H_
#define MDW_FRAGMENT_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/lru_cache.h"
#include "fragment/query_planner.h"
#include "fragment/star_query.h"

namespace mdw {

/// Canonical cache key of a star query: its predicates ordered by
/// dimension with sorted IN-list values, followed by the aggregate spec
/// and the GROUP BY attribute (if any) — so a grouped query and its
/// ungrouped twin never alias to one plan. The query name and ORDER BY /
/// LIMIT are deliberately excluded (they never influence planning: the
/// name is cosmetic, and top-k ordering is applied to the finished group
/// table after execution). Two queries have equal signatures iff the
/// planner derives identical plans for them under any fixed fragmentation
/// AND they aggregate the same items.
std::string CanonicalQuerySignature(const StarQuery& query);

/// A memoizing, LRU-evicting cache of derived QueryPlans, keyed by
/// CanonicalQuerySignature. One cache serves exactly one fragmentation
/// (plans are only valid for the fragmentation they were derived from),
/// which is why mdw::Warehouse owns one per façade and shares it between
/// copies rather than keying entries by fragmentation as well.
///
/// Entries are handed out as shared_ptr<const QueryPlan>, so a cached
/// plan stays valid even after eviction or cache destruction — eviction
/// only drops the cache's own reference. Recency and the counters are
/// the shared mdw::LruCache core's. All methods are thread-safe.
class PlanCache {
 public:
  /// Hit/miss observability snapshot (see Warehouse::plan_cache_stats()).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< lookups that found no resident plan
    std::uint64_t evictions = 0;   ///< entries dropped by LRU pressure
    std::size_t size = 0;          ///< entries currently resident
    std::size_t capacity = 0;

    double HitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) /
                                    static_cast<double>(total);
    }
  };

  /// `capacity` is the maximum number of resident plans; must be >= 1
  /// (callers that want caching off simply don't construct a cache).
  explicit PlanCache(std::size_t capacity);

  /// The cached plan for `query`, or — on a miss — the plan freshly
  /// derived through `planner`, inserted (evicting the least recently
  /// used entry when at capacity) and returned.
  std::shared_ptr<const QueryPlan> GetOrPlan(const StarQuery& query,
                                             const QueryPlanner& planner);

  /// The cached plan for `query`, or nullptr; counts as a hit/miss but
  /// never derives or inserts.
  std::shared_ptr<const QueryPlan> Lookup(const StarQuery& query) const;

  std::size_t capacity() const { return capacity_; }
  Stats stats() const;

  /// Drops all entries (handed-out plans stay valid); keeps counters.
  void Clear();

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;
  /// Every entry weighs 1; Lookup refreshes recency, hence mutable.
  mutable LruCache<std::string, std::shared_ptr<const QueryPlan>> cache_;
};

}  // namespace mdw

#endif  // MDW_FRAGMENT_PLAN_CACHE_H_
