#ifndef MDW_COMMON_LRU_CACHE_H_
#define MDW_COMMON_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace mdw {

/// The weighted LRU eviction core shared by the simulator's
/// granule-level BufferManager, the storage layer's page-granular
/// BufferPool and the PlanCache: a recency list over {key -> value}
/// entries, each costing `weight` units against `capacity`, with
/// hit/miss/eviction counters.
///
/// The cache never evicts on its own — callers run EvictToFit() before
/// Insert() so *they* decide victim eligibility (the BufferPool must
/// skip pinned frames; the simulator and the plan cache evict anything).
/// Entries live in std::list nodes, so Value pointers returned by
/// Get/Peek/Insert stay valid until the entry is erased or the cache is
/// cleared.
///
/// Not thread-safe; callers layer their own locking (the BufferPool, the
/// PlanCache) or run single-threaded (the simulator's event loop).
template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(std::int64_t capacity) : capacity_(capacity) {}

  std::int64_t capacity() const { return capacity_; }
  std::int64_t used() const { return used_; }
  std::int64_t size() const { return static_cast<std::int64_t>(map_.size()); }
  std::int64_t hits() const { return hits_; }
  std::int64_t misses() const { return misses_; }
  std::int64_t evictions() const { return evictions_; }

  /// Value of `key`, LRU-touched and counted as a hit (miss when
  /// absent); nullptr on miss.
  Value* Get(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->value;
  }

  /// Takes back the miss a Get() just counted, for a caller that gave
  /// up on the absent key instead of inserting it.
  void UncountMiss() { --misses_; }

  /// Value of `key` without touching recency or counters; nullptr when
  /// absent.
  Value* Peek(const Key& key) {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second->value;
  }

  /// Moves `key` to the most-recently-used position without counting a
  /// hit (insert-path refreshes); no-op when absent.
  void Touch(const Key& key) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      entries_.splice(entries_.begin(), entries_, it->second);
    }
  }

  /// Inserts an absent key at the most-recently-used position, charging
  /// `weight`. Does NOT evict — run EvictToFit(weight, ...) first; an
  /// insert that still exceeds capacity is admitted anyway (the
  /// oversized-granule semantics of the simulator's pool). Returns the
  /// stored value; the key must not already be present.
  Value* Insert(const Key& key, Value value, std::int64_t weight) {
    entries_.push_front(Entry{key, std::move(value), weight});
    map_.emplace(key, entries_.begin());
    used_ += weight;
    return &entries_.front().value;
  }

  /// Evicts least-recently-used entries for which `evictable(value)`
  /// holds until `used() + incoming <= capacity()` or no evictable entry
  /// remains; `on_evict(key, value)` runs for each victim before it is
  /// destroyed. Returns true iff the incoming weight fits afterwards.
  template <typename Evictable, typename OnEvict>
  bool EvictToFit(std::int64_t incoming, const Evictable& evictable,
                  const OnEvict& on_evict) {
    auto it = entries_.end();
    while (used_ + incoming > capacity_ && it != entries_.begin()) {
      auto victim = std::prev(it);
      if (evictable(victim->value)) {
        on_evict(victim->key, victim->value);
        used_ -= victim->weight;
        map_.erase(victim->key);
        entries_.erase(victim);  // `it` stays valid: list iterators are stable
        ++evictions_;
      } else {
        it = victim;  // pinned/ineligible: skip toward the MRU end
      }
    }
    return used_ + incoming <= capacity_;
  }

  /// Removes `key` if present (no eviction counted).
  void Erase(const Key& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return;
    used_ -= it->second->weight;
    entries_.erase(it->second);
    map_.erase(it);
  }

  /// Drops every entry (no eviction counted), keeping the capacity and
  /// the counters.
  void Clear() {
    entries_.clear();
    map_.clear();
    used_ = 0;
  }

  /// Clear() plus zeroed counters — reuse across runs without
  /// reconstructing.
  void Reset() {
    Clear();
    hits_ = misses_ = evictions_ = 0;
  }

 private:
  struct Entry {
    Key key;
    Value value;
    std::int64_t weight;
  };

  std::int64_t capacity_;
  std::int64_t used_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t evictions_ = 0;
  std::list<Entry> entries_;  ///< front = most recently used
  std::unordered_map<Key, typename std::list<Entry>::iterator> map_;
};

}  // namespace mdw

#endif  // MDW_COMMON_LRU_CACHE_H_
