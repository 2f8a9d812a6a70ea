// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Generate-as-you-replay request stream: produces a synthetic workload one
// popularity-refresh window at a time, so a month-long paper-scale trace
// replays with only the bounded lookahead resident instead of the whole
// request vector. Bit-identical to WorkloadGenerator::Generate() for the
// same config -- both run the same WindowedWorkload engine, and RNG streams
// advance in the same order regardless of how consumers chunk Next().
//
// Two modes:
//   * inline (generator_pool == nullptr): the next window is generated on
//     the consumer's thread when the buffer runs dry;
//   * pooled: a single self-resubmitting producer task keeps up to
//     `lookahead_windows` windows buffered ahead of the consumer, so
//     generation overlaps replay. The producer task is serialized (windows
//     are order-dependent), but different servers' streams each have their
//     own producer, sharding generation across the pool.
//
// DEADLOCK HAZARD: never point `generator_pool` at the pool that is also
// running the replay shards consuming these streams. A consumer blocked in
// Next() occupies a worker; if every worker is a blocked consumer, the
// producer tasks they are waiting on can never run. Use a dedicated
// generator pool (bench_scale_sweep and perfbench's fleet-churn do) or
// inline mode.

#ifndef VCDN_SRC_TRACE_GENERATED_STREAM_H_
#define VCDN_SRC_TRACE_GENERATED_STREAM_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/trace/request_stream.h"
#include "src/trace/workload_generator.h"

namespace vcdn::trace {

// Aggregated across every stream that points at it (atomic sinks); one
// instance can serve a whole fleet. Flushed on stream destruction.
struct GeneratedStreamStats {
  // Wall time consumers spent blocked in Next() waiting for the producer.
  std::atomic<uint64_t> consumer_wait_ns{0};
  // Wall time spent inside the window generator (producer task or inline).
  std::atomic<uint64_t> generate_ns{0};
  std::atomic<uint64_t> windows{0};
  std::atomic<uint64_t> requests{0};
};

struct GeneratedStreamOptions {
  // Pool for the lookahead producer; nullptr generates inline on the
  // consumer. MUST NOT be the pool replaying this stream (see file comment).
  exec::ThreadPool* generator_pool = nullptr;
  // Windows the producer may run ahead of the consumer (pooled mode); with
  // the default 6h refresh this bounds resident lookahead to about a day.
  size_t lookahead_windows = 4;
  // Optional aggregate stats sink; not owned, must outlive the stream.
  GeneratedStreamStats* stats = nullptr;
};

class GeneratedStream final : public RequestStream {
 public:
  explicit GeneratedStream(WorkloadConfig config, GeneratedStreamOptions options = {});
  ~GeneratedStream() override;

  GeneratedStream(const GeneratedStream&) = delete;
  GeneratedStream& operator=(const GeneratedStream&) = delete;

  RequestSpan Next(size_t max) override;
  double duration() const override { return windows_.duration(); }

  // Catalog is built eagerly at construction (same draws as Generate()).
  const Catalog& catalog() const { return windows_.catalog(); }

 private:
  // Refills current_ from the engine (inline mode) or the ready queue
  // (pooled mode). Returns false at end of stream.
  bool Refill();
  // Producer task body: generates one window, parks it, resubmits itself
  // while the lookahead budget allows. Runs on the generator pool.
  void ProduceOne();
  // Schedules the producer if it is idle and there is budget; mu_ held.
  void PumpLocked();

  WindowedWorkload windows_;
  GeneratedStreamOptions options_;

  // Buffer currently being consumed; spans point into it.
  std::vector<Request> current_;
  size_t cursor_ = 0;
  bool inline_done_ = false;

  // Pooled-mode state, all guarded by mu_ (windows_ itself is touched only
  // by the producer task in this mode, and producer tasks are serialized).
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::vector<Request>> ready_;
  bool engine_done_ = false;
  bool producer_running_ = false;
  bool stopping_ = false;

  uint64_t consumer_wait_ns_ = 0;
  uint64_t generate_ns_ = 0;
  uint64_t windows_generated_ = 0;
  uint64_t requests_generated_ = 0;
};

}  // namespace vcdn::trace

#endif  // VCDN_SRC_TRACE_GENERATED_STREAM_H_
