#include "fragment/plan_cache.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace mdw {

std::string CanonicalQuerySignature(const StarQuery& query) {
  // Order predicates by dimension and values ascending: predicate order
  // and IN-list order never change the derived plan. StarQuery enforces
  // at most one predicate per dimension, so dim is a unique sort key and
  // the canonical order is deterministic.
  std::vector<const Predicate*> preds;
  preds.reserve(query.predicates().size());
  for (const auto& p : query.predicates()) preds.push_back(&p);
  std::sort(preds.begin(), preds.end(),
            [](const Predicate* a, const Predicate* b) {
              return a->dim < b->dim;
            });

  std::string signature;
  for (const Predicate* p : preds) {
    std::vector<std::int64_t> values = p->values;
    std::sort(values.begin(), values.end());
    signature += 'd';
    signature += std::to_string(p->dim);
    signature += '@';
    signature += std::to_string(p->depth);
    signature += ':';
    for (const auto v : values) {
      signature += std::to_string(v);
      signature += ',';
    }
    signature += ';';
  }
  // Aggregate spec: item order matters (it is the SELECT-list order the
  // result table exposes), so it is canonical as written.
  signature += "|a";
  for (const AggItem& item : query.aggregates().items) {
    signature += std::to_string(static_cast<int>(item.fn));
    signature += '.';
    signature += std::to_string(static_cast<int>(item.measure));
    signature += ',';
  }
  // GROUP BY attribute: grouped plans carry per-group classification, so
  // they must never alias with the ungrouped signature.
  if (query.group_by().has_value()) {
    signature += "|g";
    signature += std::to_string(query.group_by()->dim);
    signature += '@';
    signature += std::to_string(query.group_by()->depth);
  }
  return signature;
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity),
      cache_(static_cast<std::int64_t>(std::min<std::size_t>(
          capacity, std::numeric_limits<std::int64_t>::max()))) {
  MDW_CHECK(capacity_ >= 1, "plan cache capacity must be >= 1");
}

std::shared_ptr<const QueryPlan> PlanCache::GetOrPlan(
    const StarQuery& query, const QueryPlanner& planner) {
  const std::string key = CanonicalQuerySignature(query);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const auto* plan = cache_.Get(key)) return *plan;
  }

  // Derive outside the lock: planning is the expensive part, and a plan
  // derived twice under a rare race is correct either way.
  auto plan = std::make_shared<const QueryPlan>(planner.Plan(query));

  // Declared before the lock, so the evicted plan (and its route memo) is
  // freed after the unlock.
  std::shared_ptr<const QueryPlan> evicted;
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto* resident = cache_.Peek(key)) {
    // Lost the race to another thread; keep the resident entry.
    cache_.Touch(key);
    return *resident;
  }
  cache_.EvictToFit(
      1, [](const auto&) { return true; },
      [&evicted](const auto&, auto& victim) { evicted = std::move(victim); });
  return *cache_.Insert(key, std::move(plan), /*weight=*/1);
}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(
    const StarQuery& query) const {
  const std::string key = CanonicalQuerySignature(query);
  std::lock_guard<std::mutex> lock(mu_);
  const auto* plan = cache_.Get(key);
  return plan == nullptr ? nullptr : *plan;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = static_cast<std::uint64_t>(cache_.hits());
  s.misses = static_cast<std::uint64_t>(cache_.misses());
  s.evictions = static_cast<std::uint64_t>(cache_.evictions());
  s.size = static_cast<std::size_t>(cache_.size());
  s.capacity = capacity_;
  return s;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Clear();
}

}  // namespace mdw
