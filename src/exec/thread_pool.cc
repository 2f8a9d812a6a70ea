// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/exec/thread_pool.h"

#include <algorithm>
#include <string>

#include "src/util/check.h"

namespace vcdn::exec {

namespace {

// Which pool (if any) the current thread works for, and its worker index.
// Lets Submit keep subtasks on the submitting worker's deque.
struct WorkerContext {
  const ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerContext current_worker;

}  // namespace

ThreadPool::ThreadPool(ThreadPoolOptions options) : sink_(options.trace_sink) {
  size_t n = options.num_threads;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  obs::MetricsRegistry* metrics = options.metrics;
  if (metrics != nullptr) {
    submitted_counter_ = metrics->GetCounter("exec.pool.submitted_total");
    executed_counter_ = metrics->GetCounter("exec.pool.executed_total");
    stolen_counter_ = metrics->GetCounter("exec.pool.stolen_total");
    queue_depth_gauge_ = metrics->GetGauge("exec.pool.queue_depth");
    metrics->GetGauge("exec.pool.workers").Set(static_cast<double>(n));
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    if (metrics != nullptr) {
      workers_[i]->tasks_counter =
          metrics->GetCounter("exec.worker." + std::to_string(i) + ".tasks_total");
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
  // on.
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

}  // namespace vcdn::exec
