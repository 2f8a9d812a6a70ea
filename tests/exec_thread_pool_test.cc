// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/exec/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/exec/fan_out.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"

namespace vcdn::exec {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains and joins
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndCountsMatch) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Shutdown();
  pool.Shutdown();
  EXPECT_EQ(count.load(), 100);
  ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, 100u);
  EXPECT_EQ(stats.executed, 100u);
  EXPECT_LE(stats.stolen, stats.executed);
}

TEST(ThreadPoolTest, TasksMaySubmitSubtasks) {
  // Recursive fan-out: every task spawns children until a depth budget runs
  // out; the pool must run them all, including ones submitted during
  // shutdown's drain.
  std::atomic<int> count{0};
  ThreadPool pool(4);
  std::function<void(int)> spawn = [&](int depth) {
    count.fetch_add(1, std::memory_order_relaxed);
    if (depth > 0) {
      pool.Submit([&spawn, depth] { spawn(depth - 1); });
      pool.Submit([&spawn, depth] { spawn(depth - 1); });
    }
  };
  pool.Submit([&spawn] { spawn(6); });
  pool.Shutdown();  // drains while `spawn` is still alive
  // A complete binary tree of depth 6: 2^7 - 1 nodes.
  EXPECT_EQ(count.load(), 127);
}

TEST(ThreadPoolTest, StressManyProducersManyTasks) {
  std::atomic<uint64_t> sum{0};
  ThreadPool pool(7);
  std::vector<std::thread> producers;
  for (int p = 0; p < 5; ++p) {
    producers.emplace_back([&pool, &sum, p] {
      for (int i = 0; i < 2000; ++i) {
        pool.Submit([&sum, p, i] {
          sum.fetch_add(static_cast<uint64_t>(p * 2000 + i), std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  pool.Shutdown();
  // Sum of 0..9999.
  EXPECT_EQ(sum.load(), 9999ull * 10000ull / 2);
  EXPECT_EQ(pool.stats().executed, 10000u);
}

TEST(ThreadPoolTest, HardwareConcurrencyDefaultIsNonZero) {
  ThreadPool pool;  // num_threads = 0 selects hardware concurrency
  EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, MaintainsMetricsInstruments) {
  obs::MetricsRegistry registry;
  {
    ThreadPoolOptions options;
    options.num_threads = 2;
    options.metrics = &registry;
    ThreadPool pool(options);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([] {});
    }
  }
  EXPECT_EQ(registry.CounterValue("exec.pool.submitted_total"), 50u);
  EXPECT_EQ(registry.CounterValue("exec.pool.executed_total"), 50u);
  EXPECT_EQ(registry.GaugeValue("exec.pool.workers"), 2.0);
  // Every execution is attributed to exactly one worker.
  uint64_t per_worker = registry.CounterValue("exec.worker.0.tasks_total") +
                        registry.CounterValue("exec.worker.1.tasks_total");
  EXPECT_EQ(per_worker, 50u);
}

TEST(ThreadPoolTest, LabeledTasksFlushSpansToSinkOnShutdown) {
  obs::TraceEventSink sink;
  {
    ThreadPoolOptions options;
    options.num_threads = 3;
    options.trace_sink = &sink;
    ThreadPool pool(options);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([] {}, "test.task");
    }
    pool.Submit([] {});  // unlabeled: no span
    pool.Shutdown();
  }
  ASSERT_EQ(sink.num_events(), 20u);
  std::set<int> tids;
  for (const obs::TraceEvent& event : sink.events()) {
    EXPECT_EQ(event.name, "test.task");
    EXPECT_EQ(event.phase, 'X');
    tids.insert(event.tid);
  }
  // Worker lanes start at tid 2.
  for (int tid : tids) {
    EXPECT_GE(tid, 2);
    EXPECT_LT(tid, 5);
  }
}

TEST(ThreadPoolTest, FreedWorkerRunsItsShareOldestFirstThenStealsTheNewest) {
  // Characterizes the queue discipline. External submissions alternate
  // between the two busy workers and go to the front of each queue; a worker
  // pops its own queue from the back (oldest first) and steals from the
  // front (newest first). That is the order perfbench's timed fleets start
  // their stream shards in, since streams report size 0.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int blocked = 0;
  bool release[2] = {false, false};
  std::vector<int> order;
  for (int b = 0; b < 2; ++b) {
    pool.Submit([&, b] {
      std::unique_lock<std::mutex> lock(mu);
      ++blocked;
      cv.notify_all();
      cv.wait(lock, [&] { return release[b]; });
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return blocked == 2; });
  for (int i = 0; i < 6; ++i) {
    pool.Submit([&, i] {
      std::lock_guard<std::mutex> task_lock(mu);
      order.push_back(i);
      cv.notify_all();
    });
  }
  release[0] = true;
  cv.notify_all();
  cv.wait(lock, [&] { return order.size() == 6; });
  release[1] = true;
  cv.notify_all();
  lock.unlock();
  pool.Shutdown();
  // Which worker ran the first blocker is up to the scheduler: worker 0 got
  // tasks 0, 2, 4 and worker 1 got 1, 3, 5.
  EXPECT_TRUE(order == (std::vector<int>{0, 2, 4, 5, 3, 1}) ||
              order == (std::vector<int>{1, 3, 5, 4, 2, 0}))
      << ::testing::PrintToString(order);
}

TEST(RunLargestFirstTest, OneWorkerStartsLongestFirstWithTiesInIndexOrder) {
  ThreadPool pool(1);
  // Size 0 is unknown: those tasks keep index order after the known ones.
  const std::vector<double> sizes = {3, 0, 7, 3, 10, 0};
  std::vector<size_t> started;  // written by the one worker, read after the join
  RunLargestFirst(
      pool, sizes, [&started](size_t i) { started.push_back(i); }, nullptr);
  EXPECT_EQ(started, (std::vector<size_t>{4, 2, 0, 3, 1, 5}));
}

}  // namespace
}  // namespace vcdn::exec
