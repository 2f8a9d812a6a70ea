// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/exec/strand.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"

namespace vcdn::exec {
namespace {

TEST(StrandTest, HandlersRunInPostOrder) {
  ThreadPool pool(4);
  Strand strand(pool);
  std::vector<int> order;
  for (int i = 0; i < 500; ++i) {
    strand.Post([&order, i] { order.push_back(i); });  // no lock: strand serializes
  }
  strand.Async([] {}).Get();  // join behind the last handler
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(StrandTest, HandlersNeverRunConcurrently) {
  ThreadPool pool(8);
  Strand strand(pool);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  std::atomic<uint64_t> sum{0};
  uint64_t unguarded = 0;  // only safe to touch if mutual exclusion holds

  std::vector<std::thread> posters;
  for (int p = 0; p < 4; ++p) {
    posters.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        strand.Post([&] {
          int now = inside.fetch_add(1, std::memory_order_acq_rel) + 1;
          int seen = max_inside.load(std::memory_order_relaxed);
          while (now > seen &&
                 !max_inside.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
          }
          ++unguarded;
          sum.fetch_add(1, std::memory_order_relaxed);
          inside.fetch_sub(1, std::memory_order_acq_rel);
        });
      }
    });
  }
  for (auto& t : posters) {
    t.join();
  }
  strand.Async([] {}).Get();
  EXPECT_EQ(max_inside.load(), 1);
  EXPECT_EQ(sum.load(), 2000u);
  EXPECT_EQ(unguarded, 2000u);
}

TEST(StrandTest, PostNeverExecutesInline) {
  ThreadPool pool(2);
  Strand strand(pool);
  std::atomic<bool> ran_inline{false};
  std::thread::id poster = std::this_thread::get_id();
  strand
      .Async([&ran_inline, poster] {
        if (std::this_thread::get_id() == poster) {
          ran_inline.store(true);
        }
      })
      .Get();
  EXPECT_FALSE(ran_inline.load());
}

TEST(StrandTest, RunningInThisStrandIsScopedToHandlers) {
  ThreadPool pool(2);
  Strand strand(pool);
  Strand other(pool);
  EXPECT_FALSE(strand.RunningInThisStrand());
  EXPECT_TRUE(strand.Async([&strand] { return strand.RunningInThisStrand(); }).Get());
  EXPECT_FALSE(strand.Async([&other] { return other.RunningInThisStrand(); }).Get());
}

TEST(StrandTest, TwoStrandsShareThePoolIndependently) {
  ThreadPool pool(4);
  Strand a(pool);
  Strand b(pool);
  std::vector<int> a_order;
  std::vector<int> b_order;
  for (int i = 0; i < 200; ++i) {
    a.Post([&a_order, i] { a_order.push_back(i); });
    b.Post([&b_order, i] { b_order.push_back(i); });
  }
  a.Async([] {}).Get();
  b.Async([] {}).Get();
  ASSERT_EQ(a_order.size(), 200u);
  ASSERT_EQ(b_order.size(), 200u);
  EXPECT_TRUE(std::is_sorted(a_order.begin(), a_order.end()));
  EXPECT_TRUE(std::is_sorted(b_order.begin(), b_order.end()));
}

TEST(StrandTest, MaintainsMetricsInstruments) {
  obs::MetricsRegistry registry;
  {
    ThreadPoolOptions options;
    options.num_threads = 3;
    options.metrics = &registry;
    ThreadPool pool(options);
    Strand strand(pool);
    for (int i = 0; i < 40; ++i) {
      strand.Post([] {});
    }
    strand.Async([] {}).Get();
  }
  // Read after ~Strand: Async's promise is fulfilled inside the handler,
  // before the drain counts it as executed, and the destructor waits until
  // the drain has released the strand.
  EXPECT_EQ(registry.CounterValue("exec.strand.posted_total"), 41u);
  EXPECT_EQ(registry.CounterValue("exec.strand.executed_total"), 41u);
}

}  // namespace
}  // namespace vcdn::exec
