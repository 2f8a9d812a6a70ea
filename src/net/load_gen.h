// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// Closed-loop socket load generator: replays a trace::Trace against a live
// EdgeServer (or any speaker of the src/net/protocol.h wire format) over
// real TCP connections and measures what the offline replayer cannot --
// end-to-end request latency through sockets, parsing, drain scheduling
// and the cache itself.
//
// Closed-loop means each connection keeps at most `pipeline_depth` requests
// outstanding and only issues a new one when a response frees a slot, so
// offered load adapts to the server instead of overrunning it (the classic
// load-generator discipline; open-loop arrival processes belong to the
// offline simulator).
//
// The trace is split into `connections` contiguous slices, one worker
// thread per connection. Each worker folds the responses it receives into a
// wire-side sim::OutcomeDigest. With connections == 1 and a single-shard
// server in client-time mode, the response stream is exactly the offline
// outcome stream, so the digest must equal sim::ReplayOutcomeDigest -- the
// determinism bridge of docs/NETWORKING.md.

#ifndef VCDN_SRC_NET_LOAD_GEN_H_
#define VCDN_SRC_NET_LOAD_GEN_H_

#include <cstdint>
#include <string>

#include "src/obs/hdr_histogram.h"
#include "src/obs/metrics.h"
#include "src/trace/request.h"
#include "src/util/status.h"

namespace vcdn::net {

struct LoadGenOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 1;
  // Max requests in flight per connection. 1 = strict request/response
  // ping-pong (latency-faithful); deeper pipelines amortize syscalls and
  // measure server throughput.
  size_t pipeline_depth = 16;
  // Optional: mirrors latency observations into
  // "net.client.latency_seconds" and maintains net.client.* counters.
  obs::MetricsRegistry* metrics = nullptr;
};

struct LoadGenResult {
  uint64_t requests_sent = 0;
  uint64_t responses_received = 0;
  double elapsed_seconds = 0.0;
  double requests_per_second = 0.0;
  // Wire-side outcome digest (XOR-combining across connections would break
  // order sensitivity, so: with one connection this is the bridge digest;
  // with several it is connection 0's digest, still useful as a smoke
  // value).
  uint64_t digest = 0;
  uint64_t digest_count = 0;
  // Latency quantiles in seconds, from a log-bucketed histogram
  // (1us .. 10s, 16 sub-buckets per octave).
  double latency_p50 = 0.0;
  double latency_p90 = 0.0;
  double latency_p99 = 0.0;
  double latency_p999 = 0.0;
};

// Replays the whole trace once; blocks until every response arrived (or a
// connection fails, which fails the run). `trace` must be non-empty and
// options.connections >= 1.
util::Result<LoadGenResult> RunClosedLoop(const trace::Trace& trace,
                                          const LoadGenOptions& options);

}  // namespace vcdn::net

#endif  // VCDN_SRC_NET_LOAD_GEN_H_
