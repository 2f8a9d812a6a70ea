// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "perfbench/spans.h"

#include <cstdio>
#include <fstream>
#include <utility>

#include "src/util/alloc_hook.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kReplayStream:
      return "sim.replay_stream";
    case SpanName::kNext:
      return "trace.next";
    case SpanName::kHandleBatch:
      return "core.handle_batch";
    case SpanName::kClientTick:
      return "client.tick";
    case SpanName::kEncode:
      return "client.encode";
    case SpanName::kWrite:
      return "client.write";
    case SpanName::kRead:
      return "client.read";
    case SpanName::kDecode:
      return "client.decode";
  }
  return "unknown";
}

SpanLog::SpanLog(std::string lane, size_t sample_every)
    : lane_(std::move(lane)), sample_every_(sample_every == 0 ? 1 : sample_every) {
  spans_.reserve(1 << 14);
}

uint32_t SpanLog::Open(SpanName name, uint32_t parent, uint64_t batch, int64_t start_ns) {
  spans_.push_back(Span{name, parent, batch, start_ns, start_ns});
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLog::Record(SpanName name, uint32_t parent, uint64_t batch, int64_t start_ns,
                     int64_t end_ns) {
  spans_.push_back(Span{name, parent, batch, start_ns, end_ns});
}

void SpanLog::WriteJsonl(std::ostream& out, uint64_t id_offset) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << id_offset + i << ",\"lane\":\"" << lane_ << "\",\"name\":\""
        << SpanNameString(span.name) << "\",\"parent\":";
    if (span.parent == kNoParent) {
      out << "null";
    } else {
      out << id_offset + span.parent;
    }
    out << ",\"batch\":" << span.batch << ",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
}

bool WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  uint64_t offset = 0;
  for (const SpanLog* log : logs) {
    log->WriteJsonl(out, offset);
    offset += log->size();
  }
  out.flush();
  return static_cast<bool>(out);
}

StreamProbe::StreamProbe(std::unique_ptr<vcdn::trace::RequestStream> inner, SpanLog* log,
                         uint32_t parent, std::vector<float>* per_request_us)
    : inner_(std::move(inner)), log_(log), parent_(parent), per_request_us_(per_request_us) {}

vcdn::trace::RequestSpan StreamProbe::Next(size_t max) {
  const int64_t start = NowNs();
  if (per_request_us_ != nullptr) {
    // The previous span has been fetched and fully decided by now, on this
    // thread: a shard's replay never changes threads.
    const double cpu_s = ThreadCpuSeconds();
    if (last_count_ > 0) {
      per_request_us_->push_back(static_cast<float>((cpu_s - last_call_cpu_s_) * 1e6 /
                                                    static_cast<double>(last_count_)));
    }
    last_call_cpu_s_ = cpu_s;
  }
  const vcdn::trace::RequestSpan span = inner_->Next(max);
  const int64_t end = NowNs();
  next_ns_ += static_cast<uint64_t>(end - start);
  if (log_ != nullptr && log_->Sampled(calls_)) {
    log_->Record(SpanName::kNext, parent_, calls_, start, end);
  }
  ++calls_;
  last_count_ = span.count;
  return span;
}

TracedCache::TracedCache(std::unique_ptr<vcdn::core::CacheAlgorithm> inner, SpanLog* log,
                         uint32_t parent)
    : CacheAlgorithm(inner->config()), inner_(std::move(inner)), log_(log), parent_(parent) {
  // Zeroed and disabled; sampled calls Resume/Stop around themselves.
  perf_.Start();
  perf_.Stop();
}

vcdn::core::RequestOutcome TracedCache::HandleRequestImpl(const vcdn::trace::Request& request) {
  vcdn::core::RequestOutcome outcome;
  HandleRequestBatchImpl(&request, 1, &outcome);
  return outcome;
}

void TracedCache::HandleRequestBatchImpl(const vcdn::trace::Request* requests, size_t count,
                                         vcdn::core::RequestOutcome* outcomes) {
  const bool sampled = log_->Sampled(totals_.calls);
  if (sampled) {
    perf_.Resume();
  }
  const vcdn::util::AllocScope allocs;
  const int64_t start = NowNs();
  inner_->HandleRequestBatch(requests, count, outcomes);
  const int64_t end = NowNs();
  totals_.allocations += allocs.Delta().allocations;
  if (sampled) {
    perf_.Stop();
    totals_.perf_requests += count;
    log_->Record(SpanName::kHandleBatch, parent_, totals_.calls, start, end);
  }
  totals_.ns += static_cast<uint64_t>(end - start);
  totals_.requests += count;
  ++totals_.calls;
}

uint64_t TracedCache::EvictDownTo(uint64_t max_chunks) {
  // Reached only through Resize/DropContents, which have already updated
  // this wrapper's config; mirror them on the real cache.
  return max_chunks == 0 ? inner_->DropContents() : inner_->Resize(max_chunks);
}

void AddCacheLayerMetrics(Report& report, const CacheLayerTotals& cafe,
                          const CacheLayerTotals& xlru) {
  auto per_req = [](uint64_t total, uint64_t requests) {
    return requests > 0 ? static_cast<double>(total) / static_cast<double>(requests) : 0.0;
  };
  const bool perf = cafe.perf_valid && xlru.perf_valid;
  if (!perf) {
    std::printf("hardware counters unavailable (perf_event_open refused)\n");
  }
  for (const auto& [name, totals] : {std::pair{"cafe", &cafe}, std::pair{"xlru", &xlru}}) {
    const std::string prefix = std::string("core.") + name + ".";
    report.Add(prefix + "ns_per_req", per_req(totals->ns, totals->requests), "ns");
    report.Add(prefix + "cycles_per_req",
               perf ? per_req(totals->cycles, totals->perf_requests) : 0.0, "cycles");
    report.Add(prefix + "llc_misses_per_req",
               perf ? per_req(totals->llc_misses, totals->perf_requests) : 0.0, "count");
  }
  report.Add("core.perf_counters_available", perf ? 1.0 : 0.0, "flag");
  report.Add("core.allocs_per_req",
             per_req(cafe.allocations + xlru.allocations, cafe.requests + xlru.requests), "count");
}

CacheLayerTotals TracedCache::Finish() {
  const vcdn::obs::PerfSample sample = perf_.TakeSample();
  totals_.perf_valid = sample.valid && totals_.perf_requests > 0;
  totals_.cycles = sample.cycles;
  totals_.llc_misses = sample.llc_misses;
  return totals_;
}

}  // namespace perfbench
