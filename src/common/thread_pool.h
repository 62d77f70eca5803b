#ifndef MDW_COMMON_THREAD_POOL_H_
#define MDW_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancellation.h"

namespace mdw {

/// A small fixed-size worker pool for partition-parallel execution (the
/// paper's processing model: one warehouse query fans out into independent
/// fragment subqueries processed concurrently by the PEs). The pool is the
/// process-side analogue: `ParallelForQueues` distributes queued items
/// dynamically over the workers and the calling thread, and names the lane
/// that runs each item.
///
/// Determinism contract: every item is executed exactly once; callers that
/// accumulate into per-item slots and merge in item order, or into
/// per-lane integer sums, get results independent of the worker count and
/// of scheduling.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (must be >= 1). Note that a parallel
  /// loop also runs items on the calling thread, so a pool of size 1
  /// already gives two lanes of execution.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Maps a WarehouseConfig-style degree to an actual worker count:
  /// 0 means "use the hardware" (std::thread::hardware_concurrency,
  /// at least 1); any positive value is taken as-is.
  static int ResolveWorkers(int num_workers);

  /// Lanes a call on `pool` can use: its workers plus the calling thread,
  /// or 1 (the calling thread alone) without a pool.
  static int Lanes(const ThreadPool* pool) {
    return pool == nullptr ? 1 : pool->size() + 1;
  }

  /// fn(lane, q, i) runs item i of queue q on lane `lane`, in
  /// [0, Lanes(pool)): lane 0 is the calling thread, and every other lane
  /// is one pool thread for the whole call. A lane runs its items one at
  /// a time, so state indexed by lane needs no lock.
  using QueueFn = std::function<void(int, int, std::int64_t)>;

  /// Runs fn(i) for every i in [0, n) exactly once, distributing indices
  /// dynamically (in ascending claim order) over the pool's workers plus
  /// the calling thread, and returns when all n invocations have
  /// finished: ParallelForQueues with one queue. fn must be safe to
  /// invoke concurrently for distinct indices.
  bool ParallelFor(std::int64_t n,
                   const std::function<void(std::int64_t)>& fn,
                   const CancellationToken& cancel = {}) const;

  /// Affinity scheduling with idle-worker stealing: `queue_sizes[q]` items
  /// sit in queue q; fn(lane, q, i) is invoked exactly once for every
  /// queue q and item i in [0, queue_sizes[q]). Lane l first drains queue
  /// l mod queue_sizes.size() — the affinity phase, so with as many lanes
  /// as queues every queue gets a dedicated lane — then steals items from
  /// the remaining queues in cyclic order until nothing is left. Used by
  /// the sharded executor: one queue per shard keeps a worker on one
  /// shard's rows while it lasts, stealing only when its shard runs dry,
  /// so skewed shards never idle the rest of the pool. A single item, and
  /// any call from inside a pool task, runs inline on the calling thread
  /// as lane 0, so nested use cannot deadlock the pool. Determinism is
  /// the caller's merge discipline (per-item slots, fixed merge order).
  ///
  /// Cancellation: `cancel` is polled before every item claim. Once the
  /// token trips, no further fn invocations start (in-flight ones run to
  /// completion — cancellation is cooperative). Returns true iff every
  /// item actually ran; false means at least one item was abandoned, so
  /// per-item partials are incomplete and the caller must discard them.
  /// The default unarmed token never trips and costs one null check per
  /// item.
  bool ParallelForQueues(const std::vector<std::int64_t>& queue_sizes,
                         const QueueFn& fn,
                         const CancellationToken& cancel = {}) const;

  /// The same loop on a nullable pool: with `pool` == nullptr every item
  /// runs inline on the calling thread as lane 0, in queue order.
  static bool ParallelForQueues(const ThreadPool* pool,
                                const std::vector<std::int64_t>& queue_sizes,
                                const QueueFn& fn,
                                const CancellationToken& cancel = {});

 private:
  void WorkerLoop();
  /// ParallelForQueues over `total` (>= 2) items on the workers and the
  /// calling thread.
  bool RunOnLanes(const std::vector<std::int64_t>& queue_sizes,
                  std::int64_t total, const QueueFn& fn,
                  const CancellationToken& cancel) const;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mdw

#endif  // MDW_COMMON_THREAD_POOL_H_
