// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// RunLargestFirst: the fan-out and join shared by sim::RunFleet (which also
// replays sim::RunHierarchy's edge tier and sim::RunColocated's servers) and
// trace::GenerateWorkloads (see docs/PARALLELISM.md).

#ifndef VCDN_SRC_EXEC_FAN_OUT_H_
#define VCDN_SRC_EXEC_FAN_OUT_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "src/exec/thread_pool.h"

namespace vcdn::exec {

// Runs task(i) for every i < sizes.size() on `pool` and returns once all of
// them have finished. Call it from outside the pool's workers.
//
// sizes[i] is task i's known amount of work, in any one unit (a trace's
// requests, a generator's rate x duration), or 0 when unknown. Tasks are
// submitted largest first, ties and unknown sizes in index order. Each
// worker runs its external submissions first in, first out, so the largest
// task starts first instead of whenever a worker runs out of work. A thief
// takes another worker's newest external submission, so on several workers
// the smallest tasks may start before mid-sized ones (thread_pool.h).
// Callers write results into per-index slots and merge them in index order,
// so the order changes no result.
//
// label(i), when `label` is set, names task i's span in the pool's trace; it
// must stay valid until the task starts.
void RunLargestFirst(ThreadPool& pool, const std::vector<double>& sizes,
                     const std::function<void(size_t)>& task,
                     const std::function<const char*(size_t)>& label);

}  // namespace vcdn::exec

#endif  // VCDN_SRC_EXEC_FAN_OUT_H_
