// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// The benchmark's tracing: spans recorded in memory around the calls the
// benchmark makes into each library layer, written out when the run ends.
// Nothing here reaches inside the library -- the wrappers sit at the layer
// boundaries the public API exposes:
//
//   * StreamProbe wraps a trace::RequestStream (RequestStream::Next);
//   * TracedCache is a forwarding core::CacheAlgorithm around the real one
//     (CacheAlgorithm::HandleRequestBatch), with sampled hardware counters
//     (obs::PerfCounterGroup) and allocation counts (util::AllocScope);
//   * the caller opens one span per sim::ReplayStream call and per client
//     tick of the open-loop load generator (perfbench/edge.cc).
//
// Every call is timed and added to the layer totals; full span records are
// kept for one call in `sample_every`, so per-layer totals count every call
// while the span log stays small. Self time of a layer is its total minus
// its children's totals.

#ifndef VCDN_PERFBENCH_SPANS_H_
#define VCDN_PERFBENCH_SPANS_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/cache_algorithm.h"
#include "src/obs/perf_counters.h"
#include "src/trace/request_stream.h"

namespace perfbench {

enum class SpanName : uint32_t {
  kReplayStream,  // sim::ReplayStream, one per fleet shard
  kNext,          // trace::RequestStream::Next
  kHandleBatch,   // core::CacheAlgorithm::HandleRequestBatch
  kClientTick,    // one iteration of the open-loop client
  kEncode,        // net::AppendRequest for the frames due at a tick
  kWrite,         // Socket::WriteSome of the encoded frames
  kRead,          // Socket::ReadSome of arrived responses
  kDecode,        // net::DecodeFrame over the bytes read
};
const char* SpanNameString(SpanName name);

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  SpanName name = SpanName::kReplayStream;
  uint32_t parent = kNoParent;  // index in the same log, or kNoParent
  uint64_t batch = 0;           // call sequence number within the lane
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// One lane (a fleet shard, the client thread): appended without locks by
// the single thread that owns it.
class SpanLog {
 public:
  SpanLog(std::string lane, size_t sample_every);

  bool Sampled(uint64_t call) const { return call % sample_every_ == 0; }
  // Opens a span whose end is filled in later (parents of sampled children).
  uint32_t Open(SpanName name, uint32_t parent, uint64_t batch, int64_t start_ns);
  void Close(uint32_t index, int64_t end_ns) { spans_[index].end_ns = end_ns; }
  void Record(SpanName name, uint32_t parent, uint64_t batch, int64_t start_ns, int64_t end_ns);

  size_t size() const { return spans_.size(); }
  // One JSON object per span; ids are offset so they are unique per file.
  void WriteJsonl(std::ostream& out, uint64_t id_offset) const;

 private:
  std::string lane_;
  size_t sample_every_;
  std::vector<Span> spans_;
};

// Writes every log to `path` as JSONL. Returns false when the file cannot
// be written.
bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

// Wraps a request stream. Always counts time in Next(); optionally records
// sampled spans; optionally (the untraced latency probe) records each span's
// per-request decision time, measured between consecutive Next() calls on
// the calling thread's CPU clock, so that time the host or other threads
// take from the thread is left out.
class StreamProbe final : public vcdn::trace::RequestStream {
 public:
  StreamProbe(std::unique_ptr<vcdn::trace::RequestStream> inner, SpanLog* log, uint32_t parent,
              std::vector<float>* per_request_us);

  vcdn::trace::RequestSpan Next(size_t max) override;
  double duration() const override { return inner_->duration(); }
  uint64_t total_requests_hint() const override { return inner_->total_requests_hint(); }
  vcdn::util::Status status() const override { return inner_->status(); }

  uint64_t next_ns() const { return next_ns_; }

 private:
  std::unique_ptr<vcdn::trace::RequestStream> inner_;
  SpanLog* log_;
  uint32_t parent_;
  std::vector<float>* per_request_us_;
  uint64_t calls_ = 0;
  uint64_t next_ns_ = 0;
  double last_call_cpu_s_ = 0.0;
  size_t last_count_ = 0;
};

// What a TracedCache accumulated over its lifetime.
struct CacheLayerTotals {
  uint64_t calls = 0;
  uint64_t requests = 0;
  uint64_t ns = 0;
  uint64_t allocations = 0;
  // Hardware counters over the sampled calls only.
  bool perf_valid = false;
  uint64_t perf_requests = 0;
  uint64_t cycles = 0;
  uint64_t llc_misses = 0;

  void Add(const CacheLayerTotals& other) {
    calls += other.calls;
    requests += other.requests;
    ns += other.ns;
    allocations += other.allocations;
    perf_valid = perf_valid || other.perf_valid;
    perf_requests += other.perf_requests;
    cycles += other.cycles;
    llc_misses += other.llc_misses;
  }
};

// Adds the core.* metrics measured through TracedCache for Cafe and xLRU:
// time, sampled hardware counters and allocations per request. When
// perf_event_open was refused the counter metrics read 0 and
// core.perf_counters_available says so.
void AddCacheLayerMetrics(Report& report, const CacheLayerTotals& cafe,
                          const CacheLayerTotals& xlru);

// Forwarding CacheAlgorithm: times every HandleRequestBatch of the wrapped
// cache. Construct it on the thread that will drive it (the perf counter
// group counts the constructing thread).
class TracedCache final : public vcdn::core::CacheAlgorithm {
 public:
  TracedCache(std::unique_ptr<vcdn::core::CacheAlgorithm> inner, SpanLog* log, uint32_t parent);

  std::string_view name() const override { return inner_->name(); }
  uint64_t used_chunks() const override { return inner_->used_chunks(); }
  bool ContainsChunk(const vcdn::core::ChunkId& chunk) const override {
    return inner_->ContainsChunk(chunk);
  }
  bool requires_full_trace() const override { return inner_->requires_full_trace(); }

  // Call once the replay is over (reads the counter group).
  CacheLayerTotals Finish();

 protected:
  vcdn::core::RequestOutcome HandleRequestImpl(const vcdn::trace::Request& request) override;
  void HandleRequestBatchImpl(const vcdn::trace::Request* requests, size_t count,
                              vcdn::core::RequestOutcome* outcomes) override;
  uint64_t EvictDownTo(uint64_t max_chunks) override;

 private:
  std::unique_ptr<vcdn::core::CacheAlgorithm> inner_;
  SpanLog* log_;
  uint32_t parent_;
  vcdn::obs::PerfCounterGroup perf_;
  CacheLayerTotals totals_;
};

}  // namespace perfbench

#endif  // VCDN_PERFBENCH_SPANS_H_
