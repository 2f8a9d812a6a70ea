// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/exec/future.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace vcdn::exec {
namespace {

TEST(LatchTest, WaitReturnsOnceCountReachesZero) {
  Latch latch(3);
  EXPECT_FALSE(latch.TryWait());
  latch.CountDown();
  latch.CountDown(2);
  EXPECT_TRUE(latch.TryWait());
  latch.Wait();  // must not block
}

TEST(LatchTest, ReleasesBlockedWaiters) {
  Latch latch(4);
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&latch] { latch.Wait(); });
  }
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&latch] { latch.CountDown(); });
  }
  for (auto& t : workers) {
    t.join();
  }
  for (auto& t : waiters) {
    t.join();
  }
  EXPECT_TRUE(latch.TryWait());
}

}  // namespace
}  // namespace vcdn::exec
