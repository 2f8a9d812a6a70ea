// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/exec/fan_out.h"

#include <algorithm>
#include <numeric>

#include "src/exec/future.h"
#include "src/util/check.h"

namespace vcdn::exec {

void RunLargestFirst(ThreadPool& pool, const std::vector<double>& sizes,
                     const std::function<void(size_t)>& task,
                     const std::function<const char*(size_t)>& label) {
  for (double size : sizes) {
    VCDN_CHECK(size >= 0.0);  // also rejects NaN, which would break the sort
  }
  std::vector<size_t> order(sizes.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&sizes](size_t a, size_t b) { return sizes[a] > sizes[b]; });
  Latch done(order.size());
  for (size_t i : order) {
    pool.Submit(
        [&task, &done, i] {
          task(i);
          done.CountDown();
        },
        label != nullptr ? label(i) : nullptr);
  }
  done.Wait();
}

}  // namespace vcdn::exec
