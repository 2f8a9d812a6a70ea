// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Fixed-size work-stealing thread pool (see docs/PARALLELISM.md).
//
// Each worker owns a deque of tasks. Submit from inside a worker pushes onto
// the back of that worker's own deque; external Submit calls distribute
// round-robin across workers and push onto the front. The owner pops at the
// back: its own subtasks LIFO (keeps them hot), external submissions first
// in, first out. Thieves take from the front, which for external
// submissions is the newest one. Tasks are coarse here (a whole
// server replay, a whole trace generation), so queues are mutex-guarded
// rather than lock-free -- contention is on the order of one lock per task,
// not per request.
//
// Shutdown() (and the destructor) runs every task already submitted before
// returning -- the pool never drops work. Tasks may Submit further tasks
// during shutdown; they run too. Callers that need a batch finished before
// they go on join it with exec::Latch (future.h): one CountDown per task,
// one Wait. RunLargestFirst (fan_out.h) does both for an indexed batch.
//
// Observability: with a MetricsRegistry attached, workers maintain
// "exec.pool.*" counters (submitted/executed/stolen) and a queue-depth
// gauge, plus per-worker "exec.worker.<i>.tasks_total" -- all live, via the
// registry's relaxed-atomic cells. With a TraceEventSink attached, every
// *labeled* task records a span onto its worker's trace lane (tid = 2 +
// worker index); spans are buffered worker-locally and flushed into the
// (single-threaded) sink once workers have joined.

#ifndef VCDN_SRC_EXEC_THREAD_POOL_H_
#define VCDN_SRC_EXEC_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/exec/future.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"

namespace vcdn::exec {

struct ThreadPoolOptions {
  // 0 selects std::thread::hardware_concurrency() (at least 1).
  size_t num_threads = 0;
  // Optional instruments; neither is owned. The registry may be shared with
  // the workloads running on the pool (it is thread-safe); the sink is only
  // written after workers join.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceEventSink* trace_sink = nullptr;
};

class ThreadPool {
 public:
  explicit ThreadPool(ThreadPoolOptions options = {});
  explicit ThreadPool(size_t num_threads) : ThreadPool(ThreadPoolOptions{num_threads}) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  // Enqueues a task. `label`, when non-null, makes the task span-visible in
  // the trace; it is copied when the task starts executing, so it must stay
  // valid until then (string literals in practice; for dynamic labels,
  // joining on the tasks is enough since no task starts after the join).
  void Submit(std::function<void()> task, const char* label = nullptr);

  // Runs all submitted tasks to completion, joins the workers and flushes
  // buffered worker spans to the trace sink. Idempotent.
  void Shutdown();

  // Lifetime task totals (consistent after Shutdown; a relaxed view while
  // running).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t executed = 0;
    uint64_t stolen = 0;  // executed tasks that were taken from another worker
  };
  Stats stats() const;

 private:
  struct Task {
    std::function<void()> fn;
    const char* label = nullptr;
  };

  // One per worker thread. Worker state other than the deque is only touched
  // by its own thread (spans) or after join (flush).
  struct Worker {
    std::mutex mu;
    std::deque<Task> queue;
    std::thread thread;
    std::vector<obs::TraceEvent> spans;
    obs::Counter tasks_counter;  // "exec.worker.<i>.tasks_total"
  };

  void WorkerLoop(size_t self);
  bool PopOwn(size_t self, Task* out);
  bool Steal(size_t self, Task* out);
  void Enqueue(Task task);

  // unique_ptr: Worker holds a mutex and is neither movable nor copyable.
  std::vector<std::unique_ptr<Worker>> workers_;

  // Sleep/wake machinery: pending_ counts queued-but-not-yet-popped tasks
  // and is guarded by sleep_mu_ together with stop_.
  std::mutex sleep_mu_;
  std::condition_variable wake_cv_;
  size_t pending_ = 0;
  bool stop_ = false;
  bool joined_ = false;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> stolen_{0};
  std::atomic<size_t> next_worker_{0};  // round-robin target for external submits

  obs::TraceEventSink* sink_ = nullptr;
  obs::Counter submitted_counter_;
  obs::Counter executed_counter_;
  obs::Counter stolen_counter_;
  obs::Gauge queue_depth_gauge_;
};

}  // namespace vcdn::exec

#endif  // VCDN_SRC_EXEC_THREAD_POOL_H_
