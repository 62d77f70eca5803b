#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace mdw {
namespace {

TEST(ThreadPoolTest, ResolveWorkersZeroMeansHardware) {
  EXPECT_GE(ThreadPool::ResolveWorkers(0), 1);
  EXPECT_EQ(ThreadPool::ResolveWorkers(1), 1);
  EXPECT_EQ(ThreadPool::ResolveWorkers(7), 7);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  const ThreadPool pool(4);
  constexpr std::int64_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(kN, [&](std::int64_t i) {
    visits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeCounts) {
  const ThreadPool pool(2);
  std::atomic<std::int64_t> count{0};
  pool.ParallelFor(0, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
  // More indices than workers.
  pool.ParallelFor(97, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 98);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  const ThreadPool pool(2);
  std::atomic<std::int64_t> count{0};
  pool.ParallelFor(4, [&](std::int64_t) {
    pool.ParallelFor(100, [&](std::int64_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 400);
}

TEST(ThreadPoolTest, SequentialParallelForsReuseTheWorkers) {
  const ThreadPool pool(3);
  std::atomic<std::int64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](std::int64_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50 * (64 * 63 / 2));
}

TEST(ThreadPoolTest, ParallelForQueuesVisitsEveryItemExactlyOnce) {
  const ThreadPool pool(4);
  const std::vector<std::int64_t> sizes = {1'000, 0, 37, 2'000, 1};
  std::int64_t total = 0;
  for (const auto s : sizes) total += s;
  std::vector<std::vector<std::atomic<int>>> visits;
  for (const auto s : sizes) {
    visits.emplace_back(static_cast<std::size_t>(s));
  }
  pool.ParallelForQueues(sizes, [&](int, int q, std::int64_t i) {
    visits[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)]
        .fetch_add(1);
  });
  for (std::size_t q = 0; q < visits.size(); ++q) {
    for (std::size_t i = 0; i < visits[q].size(); ++i) {
      ASSERT_EQ(visits[q][i].load(), 1) << "queue " << q << " item " << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForQueuesHandlesEmptyAndSingleItem) {
  const ThreadPool pool(2);
  std::atomic<std::int64_t> count{0};
  pool.ParallelForQueues({},
                         [&](int, int, std::int64_t) { count.fetch_add(1); });
  pool.ParallelForQueues({0, 0, 0},
                         [&](int, int, std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelForQueues({0, 1, 0},
                         [&](int, int q, std::int64_t) { count.fetch_add(q); });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForQueuesStealsAcrossSkewedQueues) {
  // One queue holds nearly all the work; every item must still execute
  // exactly once with 4 lanes draining it cooperatively.
  const ThreadPool pool(3);
  const std::vector<std::int64_t> sizes = {10'000, 1, 1, 1};
  std::atomic<std::int64_t> count{0};
  pool.ParallelForQueues(sizes,
                         [&](int, int, std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10'003);
}

TEST(ThreadPoolTest, NestedParallelForQueuesRunsInlineWithoutDeadlock) {
  const ThreadPool pool(2);
  std::atomic<std::int64_t> count{0};
  pool.ParallelFor(4, [&](std::int64_t) {
    pool.ParallelForQueues({50, 50},
                           [&](int, int, std::int64_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 400);
}

TEST(ThreadPoolTest, EachLaneIsOneThreadRunningOneItemAtATime) {
  // Skewed queues keep every lane stealing from queue 0 at once.
  const ThreadPool pool(3);
  const std::vector<std::int64_t> sizes = {10'000, 1, 1, 1};
  const int lanes = ThreadPool::Lanes(&pool);
  ASSERT_EQ(lanes, 4);
  std::vector<std::atomic<bool>> busy(static_cast<std::size_t>(lanes));
  std::vector<std::thread::id> thread_of(static_cast<std::size_t>(lanes));
  std::mutex mu;
  std::atomic<std::int64_t> count{0}, bad_lane{0}, overlaps{0}, moves{0},
      lane0_elsewhere{0};
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelForQueues(sizes, [&](int lane, int, std::int64_t) {
    if (lane < 0 || lane >= lanes) {
      bad_lane.fetch_add(1);
      return;
    }
    const auto l = static_cast<std::size_t>(lane);
    // The lane's busy flag must be free on entry: one lane never runs two
    // items at once.
    if (busy[l].exchange(true)) overlaps.fetch_add(1);
    // Lane 0 is the calling thread.
    if (lane == 0 && std::this_thread::get_id() != caller) {
      lane0_elsewhere.fetch_add(1);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      if (thread_of[l] == std::thread::id()) {
        thread_of[l] = std::this_thread::get_id();
      } else if (thread_of[l] != std::this_thread::get_id()) {
        moves.fetch_add(1);
      }
    }
    count.fetch_add(1);
    busy[l].store(false);
  });
  EXPECT_EQ(count.load(), 10'003);
  EXPECT_EQ(bad_lane.load(), 0);
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(moves.load(), 0);
  EXPECT_EQ(lane0_elsewhere.load(), 0);
}

TEST(ThreadPoolTest, NullPoolRunsInlineAsLaneZeroInQueueOrder) {
  EXPECT_EQ(ThreadPool::Lanes(nullptr), 1);
  std::vector<std::pair<int, std::int64_t>> order;
  std::int64_t off_lane = 0, off_thread = 0;
  const std::thread::id caller = std::this_thread::get_id();
  EXPECT_TRUE(ThreadPool::ParallelForQueues(
      nullptr, {2, 0, 3}, [&](int lane, int q, std::int64_t i) {
        if (lane != 0) ++off_lane;
        if (std::this_thread::get_id() != caller) ++off_thread;
        order.emplace_back(q, i);
      }));
  EXPECT_EQ(off_lane, 0);
  EXPECT_EQ(off_thread, 0);
  const std::vector<std::pair<int, std::int64_t>> expected = {
      {0, 0}, {0, 1}, {2, 0}, {2, 1}, {2, 2}};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, NullPoolStopsOnATrippedToken) {
  const CancellationToken cancel = CancellationToken::Manual();
  std::int64_t ran = 0;
  EXPECT_FALSE(ThreadPool::ParallelForQueues(
      nullptr, {5, 5},
      [&](int, int, std::int64_t) {
        if (++ran == 3) cancel.Cancel();
      },
      cancel));
  EXPECT_EQ(ran, 3);
  // A token tripped before the loop starts runs nothing.
  ran = 0;
  EXPECT_FALSE(ThreadPool::ParallelForQueues(
      nullptr, {1}, [&](int, int, std::int64_t) { ++ran; }, cancel));
  EXPECT_EQ(ran, 0);
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  const ThreadPool pool(4);
  std::atomic<std::int64_t> count{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      pool.ParallelFor(1'000, [&](std::int64_t) { count.fetch_add(1); });
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(count.load(), 4'000);
}

}  // namespace
}  // namespace mdw
