// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Latch: the executor layer's one join primitive (see docs/PARALLELISM.md).
// A single-use count-down barrier for fan-out/fan-in task batches: one
// CountDown per task, one Wait at the join point. Mutex + condition
// variable; nothing here spins.

#ifndef VCDN_SRC_EXEC_FUTURE_H_
#define VCDN_SRC_EXEC_FUTURE_H_

#include <condition_variable>
#include <mutex>

#include "src/util/check.h"

namespace vcdn::exec {

// Single-use count-down synchronization point.
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void CountDown(size_t n = 1) {
    std::lock_guard<std::mutex> lock(mu_);
    VCDN_CHECK(count_ >= n);
    count_ -= n;
    if (count_ == 0) {
      cv_.notify_all();
    }
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

  bool TryWait() {
    std::lock_guard<std::mutex> lock(mu_);
    return count_ == 0;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t count_;
};

}  // namespace vcdn::exec

#endif  // VCDN_SRC_EXEC_FUTURE_H_
