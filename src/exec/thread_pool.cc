// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/exec/thread_pool.h"

#include <algorithm>
#include <string>

#include "src/util/check.h"

namespace vcdn::exec {

namespace {

// Which pool (if any) the current thread works for, and its worker index.
// Lets Submit keep subtasks on the submitting worker's deque and lets
// InWorker/Strand detect re-entrancy.
struct WorkerContext {
  const ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerContext current_worker;

}  // namespace

ThreadPool::ThreadPool(ThreadPoolOptions options)
    : metrics_(options.metrics), sink_(options.trace_sink) {
  size_t n = options.num_threads;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  if (metrics_ != nullptr) {
    submitted_counter_ = metrics_->GetCounter("exec.pool.submitted_total");
    executed_counter_ = metrics_->GetCounter("exec.pool.executed_total");
    stolen_counter_ = metrics_->GetCounter("exec.pool.stolen_total");
    queue_depth_gauge_ = metrics_->GetGauge("exec.pool.queue_depth");
    metrics_->GetGauge("exec.pool.workers").Set(static_cast<double>(n));
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    if (metrics_ != nullptr) {
      workers_[i]->tasks_counter =
          metrics_->GetCounter("exec.worker." + std::to_string(i) + ".tasks_total");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    if (joined_) {
      return;
    }
  }
  // Stop the timer thread first: a deferred task that fires during worker
  // shutdown is fine (workers run every submitted task before joining), but
  // one firing after the join would submit into a dead pool.
  StopTimerThread();
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) {
    worker->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    joined_ = true;
  }
  if (sink_ != nullptr) {
    // Workers have joined; the single-threaded sink is safe to write now.
    // Worker order keeps the flushed event list deterministic up to span
    // timing.
    for (auto& worker : workers_) {
      for (obs::TraceEvent& span : worker->spans) {
        sink_->Add(std::move(span));
      }
      worker->spans.clear();
    }
  }
}

namespace {

// Min-heap comparator on (deadline, seq): std::push_heap keeps the max on
// top, so the predicate is inverted.
bool DeferredLater(const std::shared_ptr<internal::DeferredState>& a,
                   const std::shared_ptr<internal::DeferredState>& b) {
  if (a->deadline != b->deadline) {
    return a->deadline > b->deadline;
  }
  return a->seq > b->seq;
}

}  // namespace

DeferredHandle ThreadPool::SubmitAfter(std::chrono::nanoseconds delay,
                                       std::function<void()> task, const char* label) {
  VCDN_CHECK(task != nullptr);
  auto state = std::make_shared<internal::DeferredState>();
  state->fn = std::move(task);
  state->label = label;
  state->deadline = std::chrono::steady_clock::now() + delay;
  timers_scheduled_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    VCDN_CHECK(!timer_stop_);  // SubmitAfter on a shut-down pool loses the task
    state->seq = timer_seq_++;
    timer_heap_.push_back(state);
    std::push_heap(timer_heap_.begin(), timer_heap_.end(), DeferredLater);
    if (!timer_thread_.joinable()) {
      timer_thread_ = std::thread([this] { TimerLoop(); });
    }
  }
  timer_cv_.notify_one();
  return DeferredHandle(std::move(state));
}

void ThreadPool::TimerLoop() {
  std::unique_lock<std::mutex> lock(timer_mu_);
  for (;;) {
    if (timer_stop_) {
      return;
    }
    if (timer_heap_.empty()) {
      timer_cv_.wait(lock, [this] { return timer_stop_ || !timer_heap_.empty(); });
      continue;
    }
    auto& top = timer_heap_.front();
    if (top->phase.load(std::memory_order_acquire) != internal::DeferredState::kPending) {
      // Cancelled while queued; discard at its position in the heap. (Lazy
      // cleanup: a cancelled far-future timer occupies heap space until its
      // deadline would have passed, but never holds the thread awake.)
      std::pop_heap(timer_heap_.begin(), timer_heap_.end(), DeferredLater);
      timer_heap_.pop_back();
      continue;
    }
    const auto deadline = top->deadline;
    if (std::chrono::steady_clock::now() < deadline) {
      timer_cv_.wait_until(lock, deadline);
      continue;  // re-evaluate: stop flag, earlier insertions, cancellation
    }
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), DeferredLater);
    std::shared_ptr<internal::DeferredState> due = std::move(timer_heap_.back());
    timer_heap_.pop_back();
    if (!due->TryFire()) {
      timers_cancelled_.fetch_add(1, std::memory_order_relaxed);
      continue;  // lost the race to a concurrent Cancel
    }
    timers_fired_.fetch_add(1, std::memory_order_relaxed);
    // Submit outside the lock: Enqueue takes worker and sleep locks, and a
    // concurrent SubmitAfter must never wait on the enqueue.
    lock.unlock();
    Submit(std::move(due->fn), due->label);
    due->fn = nullptr;
    lock.lock();
  }
}

void ThreadPool::StopTimerThread() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = true;
    // Everything still pending is cancelled: Shutdown's contract is that
    // undue deferred tasks never run.
    for (auto& state : timer_heap_) {
      int expected = internal::DeferredState::kPending;
      if (state->phase.compare_exchange_strong(expected, internal::DeferredState::kCancelled,
                                               std::memory_order_acq_rel)) {
        timers_cancelled_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    timer_heap_.clear();
    to_join = std::move(timer_thread_);
  }
  timer_cv_.notify_all();
  if (to_join.joinable()) {
    to_join.join();
  }
}

void ThreadPool::Submit(std::function<void()> task, const char* label) {
  VCDN_CHECK(task != nullptr);
  submitted_.fetch_add(1, std::memory_order_relaxed);
  submitted_counter_.Increment();
  Enqueue(Task{std::move(task), label});
}

void ThreadPool::Enqueue(Task task) {
  // Queue discipline (the owner pops from the back): a worker's own
  // subtasks go to the back, so recursive fan-out runs depth-first (LIFO,
  // bounded queue growth, warm caches); external submissions go to the
  // front, so relative to each other they run FIFO on the worker they land
  // on. The FIFO half is what lets the timer thread's (deadline, seq) fire
  // order survive into execution order for equal deadlines on one worker
  // (ThreadPoolTimerTest.EqualDeadlinesFireInSubmitOrder).
  const bool own_worker = current_worker.pool == this;
  size_t target;
  if (own_worker) {
    target = current_worker.index;
  } else {
    target = next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mu);
    if (own_worker) {
      workers_[target]->queue.push_back(std::move(task));
    } else {
      workers_[target]->queue.push_front(std::move(task));
    }
  }
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    VCDN_CHECK(!joined_);  // submitting to a shut-down pool loses the task
    ++pending_;
    queue_depth_gauge_.Set(static_cast<double>(pending_));
  }
  wake_cv_.notify_one();
}

bool ThreadPool::PopOwn(size_t self, Task* out) {
  Worker& worker = *workers_[self];
  std::lock_guard<std::mutex> lock(worker.mu);
  if (worker.queue.empty()) {
    return false;
  }
  *out = std::move(worker.queue.back());
  worker.queue.pop_back();
  return true;
}

bool ThreadPool::Steal(size_t self, Task* out) {
  for (size_t offset = 1; offset < workers_.size(); ++offset) {
    Worker& victim = *workers_[(self + offset) % workers_.size()];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.queue.empty()) {
      *out = std::move(victim.queue.front());
      victim.queue.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  current_worker = WorkerContext{this, self};
  Worker& worker = *workers_[self];
  const int tid = 2 + static_cast<int>(self);  // lane 1 is the main thread

  for (;;) {
    Task task;
    bool got = PopOwn(self, &task);
    if (!got && Steal(self, &task)) {
      got = true;
      stolen_.fetch_add(1, std::memory_order_relaxed);
      stolen_counter_.Increment();
    }
    if (got) {
      {
        std::lock_guard<std::mutex> lock(sleep_mu_);
        --pending_;
        queue_depth_gauge_.Set(static_cast<double>(pending_));
      }
      if (sink_ != nullptr && task.label != nullptr) {
        obs::TraceEvent span;
        // Copy the label before running the task: the submitter only has to
        // keep it alive until the task starts (completion of fn may release
        // whatever the label points into, e.g. via a Latch).
        span.name = task.label;
        span.category = "exec";
        span.phase = 'X';
        span.tid = tid;
        span.ts_us = sink_->NowMicros();  // NowMicros is thread-safe
        task.fn();
        span.dur_us = sink_->NowMicros() - span.ts_us;
        worker.spans.push_back(std::move(span));
      } else {
        task.fn();
      }
      executed_.fetch_add(1, std::memory_order_relaxed);
      executed_counter_.Increment();
      worker.tasks_counter.Increment();
      continue;
    }

    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (pending_ > 0) {
      continue;  // a task appeared between the scan and the lock; rescan
    }
    if (stop_) {
      break;
    }
    wake_cv_.wait(lock, [this] { return stop_ || pending_ > 0; });
    if (pending_ == 0 && stop_) {
      break;
    }
  }
  current_worker = WorkerContext{};
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.executed = executed_.load(std::memory_order_relaxed);
  stats.stolen = stolen_.load(std::memory_order_relaxed);
  return stats;
}

bool ThreadPool::InWorker() const { return current_worker.pool == this; }

}  // namespace vcdn::exec
