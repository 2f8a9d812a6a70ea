// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Fixed-size work-stealing thread pool (see docs/PARALLELISM.md).
//
// Each worker owns a deque of tasks: the owner pushes and pops at the back
// (LIFO, keeps freshly spawned subtasks hot), thieves take from the front
// (FIFO, steals the oldest -- typically largest -- work first). External
// Submit calls distribute round-robin across workers; Submit from inside a
// worker enqueues to that worker's own deque. Tasks are coarse here (a whole
// server replay, a whole trace generation), so queues are mutex-guarded
// rather than lock-free -- contention is on the order of one lock per task,
// not per request.
//
// Shutdown() (and the destructor) runs every task already submitted before
// returning -- the pool never drops work. Tasks may Submit further tasks
// during shutdown; they run too.
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
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/exec/future.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_event.h"

namespace vcdn::exec {

namespace internal {

// Shared control block of one deferred task. The three-way phase makes the
// fire/cancel race a single CAS: whoever moves the task out of kPending owns
// its fate, the loser observes that it lost.
struct DeferredState {
  enum Phase : int { kPending = 0, kFired = 1, kCancelled = 2 };
  std::atomic<int> phase{kPending};
  std::function<void()> fn;
  const char* label = nullptr;
  std::chrono::steady_clock::time_point deadline;
  uint64_t seq = 0;  // tie-break so equal deadlines fire in SubmitAfter order

  // True exactly once, for the thread that transitions kPending -> kFired.
  bool TryFire() {
    int expected = kPending;
    return phase.compare_exchange_strong(expected, kFired, std::memory_order_acq_rel);
  }
};

}  // namespace internal

// Handle to a task scheduled with ThreadPool::SubmitAfter. Copyable; all
// copies address the same task. A default-constructed handle is inert.
class DeferredHandle {
 public:
  DeferredHandle() = default;

  // Attempts to keep the task from ever running. Returns true when this call
  // won the race (the task had not fired and will never run); false when the
  // task already fired -- or was already cancelled -- or the handle is empty.
  // Safe to call from any thread, any number of times, including while the
  // timer is concurrently firing the task.
  bool Cancel() {
    if (state_ == nullptr) {
      return false;
    }
    int expected = internal::DeferredState::kPending;
    return state_->phase.compare_exchange_strong(expected, internal::DeferredState::kCancelled,
                                                 std::memory_order_acq_rel);
  }

  // True while the task has neither fired nor been cancelled.
  bool pending() const {
    return state_ != nullptr &&
           state_->phase.load(std::memory_order_acquire) == internal::DeferredState::kPending;
  }

  bool valid() const { return state_ != nullptr; }

 private:
  friend class ThreadPool;
  explicit DeferredHandle(std::shared_ptr<internal::DeferredState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::DeferredState> state_;
};

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

  // Submit + a Future for the callable's result. The callable must be
  // copyable (it is stored in a std::function).
  template <typename F>
  auto Async(F&& fn, const char* label = nullptr) {
    using R = std::invoke_result_t<std::decay_t<F>>;
    Promise<R> promise;
    Future<R> future = promise.GetFuture();
    Submit(
        [promise, fn = std::forward<F>(fn)]() mutable {
          if constexpr (std::is_void_v<R>) {
            fn();
            promise.Set();
          } else {
            promise.Set(fn());
          }
        },
        label);
    return future;
  }

  // Schedules `task` to be submitted to the pool once `delay` has elapsed
  // (the deferred-task facility behind net's deadline timers). The task runs
  // on a pool worker like any Submit-ed task; the returned handle cancels it
  // (DeferredHandle::Cancel) as long as it has not fired. Timers are driven
  // by one lazily started timer thread; granularity is the OS wait
  // granularity, not a real-time guarantee. A non-positive delay fires as
  // soon as the timer thread runs.
  //
  // Shutdown semantics: deferred tasks that fired before Shutdown run to
  // completion like any submitted task; tasks still pending at Shutdown are
  // cancelled and never run.
  DeferredHandle SubmitAfter(std::chrono::nanoseconds delay, std::function<void()> task,
                             const char* label = nullptr);

  // Runs all submitted tasks to completion, joins the workers and flushes
  // buffered worker spans to the trace sink. Pending (not yet due) deferred
  // tasks are cancelled. Idempotent.
  void Shutdown();

  // Lifetime task totals (consistent after Shutdown; a relaxed view while
  // running).
  struct Stats {
    uint64_t submitted = 0;
    uint64_t executed = 0;
    uint64_t stolen = 0;  // executed tasks that were taken from another worker
  };
  Stats stats() const;

  // True when the calling thread is one of this pool's workers.
  bool InWorker() const;

  obs::MetricsRegistry* metrics() const { return metrics_; }
  obs::TraceEventSink* trace_sink() const { return sink_; }

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
  void TimerLoop();
  void StopTimerThread();

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

  // Deferred-task machinery (SubmitAfter). The heap is a min-heap on
  // (deadline, seq), guarded by timer_mu_; the timer thread starts lazily on
  // the first SubmitAfter and is joined (after cancelling everything still
  // pending) at the top of Shutdown, before the workers stop -- so a firing
  // timer can never Submit into a joined pool.
  std::mutex timer_mu_;
  std::condition_variable timer_cv_;
  std::vector<std::shared_ptr<internal::DeferredState>> timer_heap_;
  std::thread timer_thread_;
  bool timer_stop_ = false;
  uint64_t timer_seq_ = 0;
  std::atomic<uint64_t> timers_scheduled_{0};
  std::atomic<uint64_t> timers_fired_{0};
  std::atomic<uint64_t> timers_cancelled_{0};

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceEventSink* sink_ = nullptr;
  obs::Counter submitted_counter_;
  obs::Counter executed_counter_;
  obs::Counter stolen_counter_;
  obs::Gauge queue_depth_gauge_;
};

}  // namespace vcdn::exec

#endif  // VCDN_SRC_EXEC_THREAD_POOL_H_
