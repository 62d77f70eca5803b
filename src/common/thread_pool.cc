#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"

namespace mdw {

namespace {

// Set for the lifetime of every pool worker thread: a ParallelFor issued
// from inside a task must not block on the (possibly busy) queue, so it
// runs inline instead.
thread_local bool tls_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  MDW_CHECK(num_threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::ResolveWorkers(int num_workers) {
  MDW_CHECK(num_workers >= 0,
            "num_workers must be 0 (hardware) or a positive degree");
  if (num_workers > 0) return num_workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::WorkerLoop() {
  tls_pool_worker = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

bool ThreadPool::ParallelFor(std::int64_t n,
                             const std::function<void(std::int64_t)>& fn,
                             const CancellationToken& cancel) const {
  return ParallelForQueues(
      {n}, [&fn](int /*lane*/, int /*queue*/, std::int64_t i) { fn(i); },
      cancel);
}

bool ThreadPool::ParallelForQueues(
    const std::vector<std::int64_t>& queue_sizes, const QueueFn& fn,
    const CancellationToken& cancel) const {
  return ParallelForQueues(this, queue_sizes, fn, cancel);
}

bool ThreadPool::ParallelForQueues(const ThreadPool* pool,
                                   const std::vector<std::int64_t>& queue_sizes,
                                   const QueueFn& fn,
                                   const CancellationToken& cancel) {
  std::int64_t total = 0;
  for (const std::int64_t size : queue_sizes) {
    MDW_CHECK(size >= 0, "queue sizes must be non-negative");
    total += size;
  }
  if (total <= 0) return true;
  if (pool != nullptr && total > 1 && !tls_pool_worker) {
    return pool->RunOnLanes(queue_sizes, total, fn, cancel);
  }
  for (std::size_t q = 0; q < queue_sizes.size(); ++q) {
    for (std::int64_t i = 0; i < queue_sizes[q]; ++i) {
      if (cancel.ShouldStop()) return false;
      fn(/*lane=*/0, static_cast<int>(q), i);
    }
  }
  return true;
}

bool ThreadPool::RunOnLanes(const std::vector<std::int64_t>& queue_sizes,
                            std::int64_t total, const QueueFn& fn,
                            const CancellationToken& cancel) const {
  const int num_queues = static_cast<int>(queue_sizes.size());
  // Shared claim/completion state; kept alive by the helper closures in
  // case stragglers dequeue after the caller has already returned. Every
  // claimed item (run or abandoned) counts toward `done` exactly once;
  // the caller waits until all `total` items are done.
  struct QueuesState {
    std::unique_ptr<std::atomic<std::int64_t>[]> next;
    std::atomic<std::int64_t> skipped{0};
    std::atomic<std::int64_t> done{0};
    std::int64_t total = 0;
    std::vector<std::int64_t> sizes;
    const QueueFn* fn;
    CancellationToken cancel;
    std::mutex mu;
    std::condition_variable all_done;
  };
  auto state = std::make_shared<QueuesState>();
  state->next =
      std::make_unique<std::atomic<std::int64_t>[]>(
          static_cast<std::size_t>(num_queues));
  for (int q = 0; q < num_queues; ++q) state->next[q].store(0);
  state->sizes = queue_sizes;
  state->total = total;
  state->fn = &fn;
  state->cancel = cancel;

  const auto drain = [state, num_queues](int lane) {
    // Affinity phase: drain the lane's own queue; once it is empty, steal
    // from the other queues in cyclic order. A cursor past a queue's size
    // just means the queue is drained.
    QueuesState& s = *state;
    for (int off = 0; off < num_queues; ++off) {
      const int q = (lane + off) % num_queues;
      while (true) {
        const std::int64_t i =
            s.next[q].fetch_add(1, std::memory_order_relaxed);
        if (i >= s.sizes[static_cast<std::size_t>(q)]) break;
        // A tripped token abandons the item, but the claim still counts
        // toward completion so the caller's wait terminates promptly:
        // every lane races through the remaining claims without running
        // fn.
        if (s.cancel.ShouldStop()) {
          s.skipped.fetch_add(1, std::memory_order_relaxed);
        } else {
          (*s.fn)(lane, q, i);
        }
        if (s.done.fetch_add(1, std::memory_order_acq_rel) + 1 == s.total) {
          std::lock_guard<std::mutex> lock(s.mu);
          s.all_done.notify_all();
        }
      }
    }
  };

  // Up to `total - 1` helper tasks, lanes 1..helpers, each run whole by
  // one worker; the caller drains as lane 0, then waits for stragglers
  // to finish the items they already claimed.
  const int helpers = static_cast<int>(
      std::min<std::int64_t>(size(), total - 1));
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int lane = 1; lane <= helpers; ++lane) {
      tasks_.emplace_back([drain, lane] { drain(lane); });
    }
  }
  if (helpers == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
  drain(0);
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->all_done.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->total;
    });
  }
  return state->skipped.load(std::memory_order_acquire) == 0;
}

}  // namespace mdw
