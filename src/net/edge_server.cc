// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.

#include "src/net/edge_server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/util/alloc_hook.h"
#include "src/util/check.h"

namespace vcdn::net {

namespace {

// Per-connection read chunk; also the initial inbound buffer capacity. A
// request frame is 52 bytes, so one read drains hundreds of pipelined
// requests.
constexpr size_t kReadChunkBytes = 16 * 1024;
// Initial outbound capacity: responses are 44 bytes, so this comfortably
// holds a deep pipeline without regrowing.
constexpr size_t kInitialOutBytes = 32 * 1024;
// Reads per EPOLLIN event before yielding back to the loop (level-triggered
// epoll re-arms, so a firehose connection cannot starve the others).
constexpr int kMaxReadsPerEvent = 8;
// Up-front capacity of the per-shard scratch vectors (inbox, working set,
// batch storage). A drain batch is bounded by the clients' aggregate
// pipeline depth, so reserving here makes the drain path allocation-free
// from the first request for any sane client config -- the soak test pins
// that (net.server.serve_allocs_total stays zero). Bigger fleets just grow
// once past this floor.
constexpr size_t kShardScratchReserve = 4096;

}  // namespace

EdgeServer::Connection::Connection(Socket s)
    : sock(std::move(s)), in(kReadChunkBytes), out(kInitialOutBytes) {}

EdgeServer::EdgeServer(exec::ThreadPool& pool, EdgeServerOptions options)
    : pool_(pool), options_(std::move(options)) {
  VCDN_CHECK(options_.num_shards > 0);
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->cache = core::MakeCache(options_.cache_kind, options_.cache_config);
    if (options_.flight_recorder_capacity > 0) {
      shard->flight = std::make_unique<obs::FlightRecorder>(options_.flight_recorder_capacity);
    }
    if (options_.metrics != nullptr) {
      shard->cache->AttachMetrics(*options_.metrics);
    }
    shard->digest_value.store(shard->digest.value(), std::memory_order_relaxed);
    shard->inbox.reserve(kShardScratchReserve);
    shard->working.reserve(kShardScratchReserve);
    shard->requests.reserve(kShardScratchReserve);
    shard->outcomes.reserve(kShardScratchReserve);
    shard->touched.reserve(256);
    shards_.push_back(std::move(shard));
  }
  staged_.resize(options_.num_shards);
  for (auto& staged : staged_) {
    staged.reserve(kShardScratchReserve);
  }
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& reg = *options_.metrics;
    accepted_total_ = reg.GetCounter("net.server.accepted_total");
    closed_total_ = reg.GetCounter("net.server.closed_total");
    requests_total_ = reg.GetCounter("net.server.requests_total");
    responses_total_ = reg.GetCounter("net.server.responses_total");
    bytes_in_total_ = reg.GetCounter("net.server.bytes_in_total");
    bytes_out_total_ = reg.GetCounter("net.server.bytes_out_total");
    protocol_errors_total_ = reg.GetCounter("net.server.protocol_errors_total");
    idle_closed_total_ = reg.GetCounter("net.server.idle_closed_total");
    serve_allocs_total_ = reg.GetCounter("net.server.serve_allocs_total");
    active_connections_ = reg.GetGauge("net.server.active_connections");
  }
}

EdgeServer::~EdgeServer() { Stop(); }

util::Status EdgeServer::Start() {
  VCDN_CHECK(!running_.load(std::memory_order_acquire));
  VCDN_RETURN_IF_ERROR(listener_.Listen(options_.address, options_.port));
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return util::InternalError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    return util::InternalError(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) < 0) {
    return util::InternalError(std::string("epoll_ctl(listener): ") + std::strerror(errno));
  }
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return util::InternalError(std::string("epoll_ctl(wake): ") + std::strerror(errno));
  }
  start_time_ = std::chrono::steady_clock::now();
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { LoopMain(); });
  return util::OkStatus();
}

void EdgeServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  WakeLoop();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  // Drain: the loop no longer produces, so once a shard's flag falls its
  // last drain has handled the inbox and queued the responses, and no task
  // of this server is left on the pool.
  for (auto& shard : shards_) {
    std::unique_lock<std::mutex> lock(shard->inbox_mu);
    shard->drained_cv.wait(lock, [&shard] { return !shard->drain_scheduled; });
  }
  // Best-effort flush of queued responses, bounded: clients that already
  // read everything (the normal case) make this a no-op.
  const auto flush_deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
  for (;;) {
    bool pending = false;
    for (auto& [fd, conn] : conns_) {
      FlushConnection(*conn);
      std::lock_guard<std::mutex> out_lock(conn->out_mu);
      if (!conn->closed && !conn->kill.load(std::memory_order_relaxed) &&
          conn->out.ReadableBytes() > 0) {
        pending = true;
      }
    }
    if (!pending || std::chrono::steady_clock::now() >= flush_deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& [fd, conn] : conns_) {
    std::lock_guard<std::mutex> out_lock(conn->out_mu);
    conn->closed = true;
    conn->sock.Close();
    closed_total_.Increment();
  }
  conns_.clear();
  active_connections_.Set(0.0);
  listener_.Close();
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
}

EdgeServer::DigestSnapshot EdgeServer::ShardDigest(size_t shard) const {
  VCDN_CHECK(shard < shards_.size());
  DigestSnapshot snapshot;
  snapshot.count = shards_[shard]->digest_count.load(std::memory_order_acquire);
  snapshot.value = shards_[shard]->digest_value.load(std::memory_order_acquire);
  return snapshot;
}

const obs::FlightRecorder* EdgeServer::ShardFlightRecorder(size_t shard) const {
  VCDN_CHECK(shard < shards_.size());
  return shards_[shard]->flight.get();
}

void EdgeServer::WakeLoop() {
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void EdgeServer::LoopMain() {
  constexpr int kMaxEvents = 64;
  constexpr std::chrono::milliseconds kMaxWait{100};
  epoll_event events[kMaxEvents];
  // Sweep at half the timeout so a connection is closed at most 1.5x the
  // configured idle time after its last byte.
  const bool sweep_idle = options_.idle_timeout.count() > 0;
  const auto sweep_period = options_.idle_timeout / 2 + std::chrono::milliseconds(1);
  auto now = std::chrono::steady_clock::now();
  auto next_sweep = now + sweep_period;
  while (!stopping_.load(std::memory_order_acquire)) {
    // The wait is capped at the time left to the next sweep, so the sweep
    // keeps its period however the events arrive.
    std::chrono::milliseconds wait = kMaxWait;
    if (sweep_idle) {
      wait = std::clamp(std::chrono::ceil<std::chrono::milliseconds>(next_sweep - now),
                        std::chrono::milliseconds(0), kMaxWait);
    }
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, static_cast<int>(wait.count()));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // epoll fd gone: shutting down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listener_.fd()) {
        HandleAccept();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drain = 0;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) {
        continue;  // already closed this iteration
      }
      const std::shared_ptr<Connection> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        conn->kill.store(true, std::memory_order_release);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) {
        HandleReadable(conn);
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        FlushConnection(*conn);
      }
    }
    FlushStagedRequests();
    int64_t idle_cutoff_ns = 0;
    if (sweep_idle) {
      now = std::chrono::steady_clock::now();
      if (now >= next_sweep) {
        idle_cutoff_ns = (now - options_.idle_timeout).time_since_epoch().count();
        next_sweep = now + sweep_period;
      }
    }
    SweepConnections(idle_cutoff_ns);
  }
}

void EdgeServer::HandleAccept() {
  for (;;) {
    util::Result<Socket> accepted = listener_.Accept();
    if (!accepted.ok()) {
      return;  // hard accept error: transient under fd pressure; retry later
    }
    if (!accepted.value().valid()) {
      return;  // would-block: queue drained
    }
    Socket sock = std::move(accepted).value();
    if (!sock.SetNonBlocking(true).ok() || !sock.SetNoDelay(true).ok()) {
      continue;
    }
    const int fd = sock.fd();
    auto conn = std::make_shared<Connection>(std::move(sock));
    conn->id = next_conn_id_++;
    conn->last_activity_ns = std::chrono::steady_clock::now().time_since_epoch().count();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;  // Socket closes on scope exit
    }
    conns_.emplace(fd, std::move(conn));
    active_connections_.Set(static_cast<double>(conns_.size()));
    accepted_total_.Increment();
  }
}

void EdgeServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  bool peer_closed = false;
  for (int round = 0; round < kMaxReadsPerEvent; ++round) {
    conn->in.EnsureWritable(kReadChunkBytes);
    const ssize_t n = conn->sock.ReadSome(conn->in.WritePtr(), conn->in.WritableBytes());
    if (n > 0) {
      conn->in.CommitWrite(static_cast<size_t>(n));
      bytes_in_total_.Increment(static_cast<uint64_t>(n));
      continue;
    }
    if (n == 0) {
      break;  // would-block: drained
    }
    // Peer closed (-1) or hard error (-2): parse what arrived, then close.
    peer_closed = true;
    break;
  }
  conn->last_activity_ns = std::chrono::steady_clock::now().time_since_epoch().count();
  if (!ParseFrames(conn)) {
    protocol_errors_total_.Increment();
    conn->kill.store(true, std::memory_order_release);
    return;
  }
  if (peer_closed) {
    conn->kill.store(true, std::memory_order_release);
  }
}

bool EdgeServer::ParseFrames(const std::shared_ptr<Connection>& conn) {
  DecodedFrame frame;
  for (;;) {
    util::Result<size_t> decoded = DecodeFrame(conn->in, &frame);
    if (!decoded.ok()) {
      return false;  // corrupt stream; Status text is in decoded.status()
    }
    if (decoded.value() == 0) {
      return true;  // incomplete frame: wait for more bytes
    }
    if (frame.type != FrameType::kRequest) {
      return false;  // clients must not send response frames
    }
    RequestFrame request = frame.request;
    if (!options_.use_client_time) {
      request.arrival_time = StampArrival();
    }
    const size_t shard_index =
        options_.num_shards == 1
            ? 0
            : static_cast<size_t>(request.video % options_.num_shards);
    staged_[shard_index].push_back(PendingRequest{conn, request});
    requests_total_.Increment();
  }
}

void EdgeServer::FlushStagedRequests() {
  for (size_t i = 0; i < staged_.size(); ++i) {
    std::vector<PendingRequest>& staged = staged_[i];
    if (staged.empty()) {
      continue;
    }
    Shard& shard = *shards_[i];
    bool schedule = false;
    {
      std::lock_guard<std::mutex> lock(shard.inbox_mu);
      shard.inbox.insert(shard.inbox.end(), std::make_move_iterator(staged.begin()),
                         std::make_move_iterator(staged.end()));
      if (!shard.drain_scheduled) {
        shard.drain_scheduled = true;
        schedule = true;
      }
    }
    staged.clear();
    if (schedule) {
      // [this, i] is 16 trivially-copyable bytes: fits std::function's
      // small-object buffer, so scheduling a drain does not allocate.
      pool_.Submit([this, i] { DrainShard(i); }, "net.shard.drain");
    }
  }
}

void EdgeServer::DrainShard(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    util::AllocScope alloc_scope;
    {
      std::lock_guard<std::mutex> lock(shard.inbox_mu);
      if (shard.inbox.empty()) {
        // Clearing the flag hands the shard back: Stop() may return and
        // destroy the server once it sees the flag down, so the notify
        // under inbox_mu is this drain's last access to the server.
        shard.drain_scheduled = false;
        shard.drained_cv.notify_all();
        return;
      }
      shard.inbox.swap(shard.working);
    }
    const size_t count = shard.working.size();
    shard.requests.clear();
    if (shard.requests.capacity() < count) {
      shard.requests.reserve(count);
    }
    for (const PendingRequest& pending : shard.working) {
      trace::Request request;
      // Monotone clamp: HandleRequest requires non-decreasing times, and
      // with several connections (or a client replaying an unsorted trace)
      // wire order is the order that counts.
      request.arrival_time = std::max(pending.frame.arrival_time, shard.last_time);
      shard.last_time = request.arrival_time;
      request.video = pending.frame.video;
      request.byte_begin = pending.frame.byte_begin;
      request.byte_end = pending.frame.byte_end;
      shard.requests.push_back(request);
    }
    if (shard.outcomes.size() < count) {
      shard.outcomes.resize(count);
    }
    shard.cache->HandleRequestBatch(shard.requests.data(), count, shard.outcomes.data());

    shard.touched.clear();
    for (size_t j = 0; j < count; ++j) {
      const core::RequestOutcome& outcome = shard.outcomes[j];
      shard.digest.Fold(outcome);
      if (shard.flight != nullptr) {
        shard.flight->Record(sim::MakeDecisionRecord(shard.requests[j], outcome,
                                                     /*fault_state=*/0));
      }
      ResponseFrame response;
      response.request_id = shard.working[j].frame.request_id;
      response.requested_bytes = outcome.requested_bytes;
      response.decision = static_cast<uint8_t>(outcome.decision);
      response.tier = static_cast<uint8_t>(sim::ServedTierOf(outcome));
      response.hit_chunks = outcome.hit_chunks;
      response.filled_chunks = outcome.filled_chunks;
      response.evicted_chunks = outcome.evicted_chunks;
      Connection* conn = shard.working[j].conn.get();
      {
        std::lock_guard<std::mutex> out_lock(conn->out_mu);
        if (!conn->closed) {
          AppendResponse(conn->out, response);
        }
      }
      if (std::find(shard.touched.begin(), shard.touched.end(), conn) == shard.touched.end()) {
        shard.touched.push_back(conn);
      }
    }
    responses_total_.Increment(count);
    // One flush per distinct connection per batch: with pipelining this is
    // the difference between one syscall per response and one per batch.
    for (Connection* conn : shard.touched) {
      FlushConnection(*conn);
    }
    shard.working.clear();
    shard.digest_value.store(shard.digest.value(), std::memory_order_release);
    shard.digest_count.store(shard.digest.count(), std::memory_order_release);
    serve_allocs_total_.Increment(alloc_scope.Delta().allocations);
  }
}

void EdgeServer::FlushConnection(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.out_mu);
  if (conn.closed) {
    return;
  }
  while (conn.out.ReadableBytes() > 0) {
    const ssize_t n = conn.sock.WriteSome(conn.out.ReadPtr(), conn.out.ReadableBytes());
    if (n > 0) {
      conn.out.ConsumeRead(static_cast<size_t>(n));
      bytes_out_total_.Increment(static_cast<uint64_t>(n));
      continue;
    }
    if (n == 0) {
      // Kernel buffer full: park the residue and let EPOLLOUT finish it.
      if (!conn.want_write) {
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT;
        ev.data.fd = conn.sock.fd();
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(), &ev) == 0) {
          conn.want_write = true;
        }
      }
      return;
    }
    conn.kill.store(true, std::memory_order_release);
    WakeLoop();
    return;
  }
  if (conn.want_write) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn.sock.fd();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.sock.fd(), &ev) == 0) {
      conn.want_write = false;
    }
  }
}

void EdgeServer::CloseConnection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;
  }
  const std::shared_ptr<Connection> conn = std::move(it->second);
  conns_.erase(it);
  active_connections_.Set(static_cast<double>(conns_.size()));
  {
    std::lock_guard<std::mutex> out_lock(conn->out_mu);
    conn->closed = true;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    conn->sock.Close();
  }
  closed_total_.Increment();
}

void EdgeServer::SweepConnections(int64_t idle_cutoff_ns) {
  // Small working copy: closing mutates conns_, so collect first.
  std::vector<int> doomed;
  size_t idle = 0;
  for (const auto& [fd, conn] : conns_) {
    if (conn->kill.load(std::memory_order_acquire)) {
      doomed.push_back(fd);
    } else if (conn->last_activity_ns < idle_cutoff_ns) {
      doomed.push_back(fd);
      ++idle;
    }
  }
  if (idle > 0) {
    idle_closed_total_.Increment(idle);
  }
  for (int fd : doomed) {
    CloseConnection(fd);
  }
}

double EdgeServer::StampArrival() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count();
}

}  // namespace vcdn::net
