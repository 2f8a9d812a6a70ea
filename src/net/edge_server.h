// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// EdgeServer: a live TCP daemon around the cache algorithms -- the
// paper's edge server as a process instead of a replay loop. It speaks the
// length-prefixed protocol of src/net/protocol.h and multiplexes any number
// of connections onto the existing exec::ThreadPool.
//
// Threading model (docs/NETWORKING.md has the full picture):
//
//   * one event-loop thread owns epoll, the listener, and every
//     Connection's inbound buffer: accept, read, parse, route;
//   * requests are routed by video id to one of `num_shards` shards; each
//     shard owns a CacheAlgorithm, and its drain_scheduled flag admits one
//     drain at a time, so cache state is single-writer without a dedicated
//     thread;
//   * a shard drain (one pool task, net.shard.drain) swaps the shard inbox,
//     runs the batch through CacheAlgorithm::HandleRequestBatch, folds the
//     outcome digest, encodes responses into each connection's outbound
//     buffer and flushes them, until the inbox is empty;
//   * write-side backpressure: a flush that would block parks the residue
//     in the connection's grow-once out buffer and arms EPOLLOUT; the
//     event loop completes it.
//
// The serve path (drain body) is alloc-free at steady state: inbox/batch
// storage and wire buffers grow to their working set and are then reused.
// Allocations inside the drain region are counted through util::AllocScope
// into "net.server.serve_allocs_total", which the soak test asserts flat
// (tests/net_soak_test.cc; counts are zero unless vcdn_alloc_hook is
// linked).
//
// Determinism bridge: each shard folds every outcome into a
// sim::OutcomeDigest. With one shard, requests are handled in exactly the
// order they arrive on the wire, so for a single-connection replay of a
// trace the shard digest must equal sim::ReplayOutcomeDigest of the same
// trace -- at any pool thread count. The event loop also sweeps for
// connections idle past `idle_timeout`, so the daemon needs no timer.

#ifndef VCDN_SRC_NET_EDGE_SERVER_H_
#define VCDN_SRC_NET_EDGE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/cache_algorithm.h"
#include "src/core/cache_factory.h"
#include "src/exec/thread_pool.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/net/wire_buffer.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/sim/decision_digest.h"
#include "src/util/status.h"

namespace vcdn::net {

struct EdgeServerOptions {
  std::string address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read back via EdgeServer::port()
  size_t num_shards = 1;
  core::CacheKind cache_kind = core::CacheKind::kCafe;
  core::CacheConfig cache_config;
  // Clock mode. true: trust the arrival_time carried by each request frame
  // (clamped per shard to stay non-decreasing) -- the mode the determinism
  // bridge uses, since the daemon then sees exactly the trace's timestamps.
  // false: stamp arrivals from the server's own monotonic clock at parse
  // time (seconds since Start), for live traffic with no meaningful client
  // clock.
  bool use_client_time = true;
  // Connections that receive no bytes for this long are closed by the
  // event loop's idle sweep (0 disables the sweep).
  std::chrono::milliseconds idle_timeout{30000};
  obs::MetricsRegistry* metrics = nullptr;       // optional; also attached to caches
  size_t flight_recorder_capacity = 0;           // >0: per-shard flight recorders
};

class EdgeServer {
 public:
  // The pool must outlive the server. Shard drains run on it.
  EdgeServer(exec::ThreadPool& pool, EdgeServerOptions options);
  ~EdgeServer();  // Stop()

  EdgeServer(const EdgeServer&) = delete;
  EdgeServer& operator=(const EdgeServer&) = delete;

  // Binds, registers with epoll and launches the event-loop thread.
  util::Status Start();

  // Graceful drain: stop accepting, join the loop, wait for every shard's
  // drain to empty its inbox, flush pending responses (bounded), close
  // connections. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return listener_.port(); }
  size_t num_shards() const { return shards_.size(); }

  // Outcome digest of one shard, as of the last completed drain. Stable
  // once the shard is quiescent (all responses delivered).
  struct DigestSnapshot {
    uint64_t value = 0;
    uint64_t count = 0;
  };
  DigestSnapshot ShardDigest(size_t shard) const;

  // Per-shard flight recorder (nullptr unless flight_recorder_capacity > 0).
  // Snapshot only while the shard is quiescent or after Stop().
  const obs::FlightRecorder* ShardFlightRecorder(size_t shard) const;

 private:
  struct Connection {
    explicit Connection(Socket s);

    Socket sock;
    uint64_t id = 0;
    WireBuffer in;
    // Outbound side, shared between shard drains (append + flush) and the
    // event loop (EPOLLOUT completion); everything below out_mu's line is
    // guarded by it.
    std::mutex out_mu;
    WireBuffer out;
    bool want_write = false;  // EPOLLOUT currently armed
    bool closed = false;      // fd no longer usable (guarded by out_mu)
    // Set by any thread to ask the event loop to close this connection.
    std::atomic<bool> kill{false};
    // steady_clock ticks of the last received byte, for the idle sweep.
    // Event-loop thread only.
    int64_t last_activity_ns = 0;
  };

  // One routed request waiting in a shard inbox.
  struct PendingRequest {
    std::shared_ptr<Connection> conn;
    RequestFrame frame;
  };

  struct Shard {
    std::unique_ptr<core::CacheAlgorithm> cache;
    std::unique_ptr<obs::FlightRecorder> flight;

    std::mutex inbox_mu;
    std::vector<PendingRequest> inbox;  // producer side (event loop)
    // Guarded by inbox_mu. Set when the loop submits a drain, cleared by
    // that drain once it finds the inbox empty: at most one drain per shard
    // is queued or running, and it owns everything below.
    bool drain_scheduled = false;
    std::condition_variable drained_cv;  // notified when drain_scheduled falls

    // Drain-confined working state, reused across drains (grow-once).
    std::vector<PendingRequest> working;
    std::vector<trace::Request> requests;
    std::vector<core::RequestOutcome> outcomes;
    std::vector<Connection*> touched;  // conns to flush after a batch
    double last_time = 0.0;            // monotone clamp for client timestamps
    sim::OutcomeDigest digest;

    // Published after every drain iteration for cross-thread reads.
    std::atomic<uint64_t> digest_value{0};
    std::atomic<uint64_t> digest_count{0};
  };

  // --- event-loop side ---
  void LoopMain();
  void WakeLoop();
  void HandleAccept();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  // Parses conn->in, staging routed requests; returns false when the stream
  // is corrupt and the connection must be dropped.
  bool ParseFrames(const std::shared_ptr<Connection>& conn);
  void FlushStagedRequests();
  void CloseConnection(int fd);
  // Closes every connection marked for kill and, with `idle_cutoff_ns`
  // nonzero, every connection whose last byte arrived before it.
  void SweepConnections(int64_t idle_cutoff_ns);
  double StampArrival() const;

  // --- shard side (one drain per shard at a time) ---
  void DrainShard(size_t shard_index);
  // Flushes conn->out; arms EPOLLOUT on short write, sets kill on error.
  void FlushConnection(Connection& conn);

  exec::ThreadPool& pool_;
  EdgeServerOptions options_;
  Listener listener_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::chrono::steady_clock::time_point start_time_{};

  std::vector<std::unique_ptr<Shard>> shards_;
  // Routing scratch, event-loop-thread only: parsed requests staged per
  // shard within one poll iteration, flushed in one lock acquisition per
  // shard.
  std::vector<std::vector<PendingRequest>> staged_;

  // Event-loop thread only (and Stop, after the loop has joined).
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;

  // net.server.* instruments (no-ops when options_.metrics == nullptr).
  obs::Counter accepted_total_;
  obs::Counter closed_total_;
  obs::Counter requests_total_;
  obs::Counter responses_total_;
  obs::Counter bytes_in_total_;
  obs::Counter bytes_out_total_;
  obs::Counter protocol_errors_total_;
  obs::Counter idle_closed_total_;
  obs::Counter serve_allocs_total_;
  obs::Gauge active_connections_;
};

}  // namespace vcdn::net

#endif  // VCDN_SRC_NET_EDGE_SERVER_H_
