#include "tc/rpc/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "tc/obs/metrics.h"
#include "tc/obs/trace.h"

namespace tc::rpc {

namespace {

obs::MetricRegistry& Registry() { return obs::MetricRegistry::Global(); }

/// A listening TCP socket on 127.0.0.1:`port` (0 = ephemeral).
Result<int> ListenLoopback(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable("socket() failed: no loopback support");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const char* failed = nullptr;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    failed = "bind() failed: ";
  } else if (::listen(fd, backlog) != 0) {
    failed = "listen() failed: ";
  }
  if (failed != nullptr) {
    const Status status =
        Status::Unavailable(std::string(failed) + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return fd;
}

}  // namespace

RpcServer::Metrics::Metrics()
    : accepted(Registry().GetCounter("rpc.server.accepted")),
      connections(Registry().GetGauge("rpc.server.connections")),
      requests(Registry().GetCounter("rpc.server.requests")),
      malformed(Registry().GetCounter("rpc.server.malformed")),
      bytes_in(Registry().GetCounter("rpc.server.bytes_in")),
      bytes_out(Registry().GetCounter("rpc.server.bytes_out")),
      in_flight(Registry().GetGauge("rpc.server.in_flight")),
      dispatch_us(Registry().GetHistogram("rpc.server.dispatch_us")),
      admission_rejected(Registry().GetCounter("rpc.server.admission_rejected")),
      admission_limit(Registry().GetGauge("rpc.server.admission_limit")),
      shed_expired(Registry().GetCounter("rpc.server.shed_expired")),
      shed_codel(Registry().GetCounter("rpc.server.shed_codel")) {
  // Per-op latency alongside the overall dispatch histogram, so the wire
  // tax of each operation class is continuously visible (not bench-only).
  for (size_t op = 0; op < kRpcOpCount; ++op) {
    op_us[op] = &Registry().GetHistogram(
        std::string("rpc.server.") + RpcOpName(static_cast<RpcOp>(op)) +
        "_us");
  }
}

RpcServer::RpcServer(cloud::CloudInfrastructure* cloud,
                     const Options& options)
    : provider_(cloud), options_(options) {}

RpcServer::~RpcServer() { Shutdown(); }

bool RpcServer::LoopbackAvailable() {
  static const bool available = [] {
    auto fd = ListenLoopback(0, 1);
    if (fd.ok()) ::close(fd.value());
    return fd.ok();
  }();
  return available;
}

Status RpcServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  auto listened = ListenLoopback(options_.port, 128);
  if (!listened.ok()) return listened.status();
  const int fd = listened.value();
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::Internal("getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  if (options_.admission && admission_ == nullptr) {
    admission_ = std::make_unique<AdmissionController>(
        options_.admission_config);
  }
  pool_ = std::make_unique<fleet::WorkerPool>(fleet::WorkerPool::Options{
      options_.worker_threads, options_.queue_capacity, options_.codel,
      options_.codel_target_us, options_.codel_interval_us});
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Stop accepting: closing the listener wakes the accept loop. The
  //    exchange retires the fd so the accept thread (which re-reads it
  //    every iteration) can never race the close.
  int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // 2. Half-close every connection's read side: readers see EOF and stop
  //    producing new work, but responses for requests already inside the
  //    pool can still be written (the write side stays up).
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns = conns_;
  }
  for (auto& c : conns) ShutdownConnection(*c, SHUT_RD);

  // 3. Drain in-flight dispatches; each writes its response before the
  //    task completes, so after this barrier every accepted request has
  //    been answered.
  if (pool_) pool_->Shutdown();

  // 4. Join the readers; each closes its own fd on the way out.
  for (auto& c : conns) {
    ShutdownConnection(*c, SHUT_RDWR);
    if (c->reader.joinable()) c->reader.join();
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  pool_.reset();
}

RpcServer::Stats RpcServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.malformed = malformed_.load(std::memory_order_relaxed);
  s.version_mismatch = version_mismatch_.load(std::memory_order_relaxed);
  s.admission_rejected = admission_rejected_.load(std::memory_order_relaxed);
  s.shed_expired = shed_expired_.load(std::memory_order_relaxed);
  s.shed_codel = shed_codel_.load(std::memory_order_relaxed);
  return s;
}

void RpcServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) break;  // Shutdown retired the listener.
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener closed (shutdown) or fatal.
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.accepted.Increment();
    metrics_.connections.Add(1);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void RpcServer::ReaderLoop(std::shared_ptr<Connection> conn) {
  FrameReader reader(conn->fd, /*responses=*/false, options_.max_frame_bytes);
  FrameHeader h;
  Bytes payload;
  while (conn->open.load(std::memory_order_acquire)) {
    Status framed = reader.Next(&h, &payload);
    if (!framed.ok()) {
      if (framed.code() != StatusCode::kUnavailable) {
        // Malformed or version-mismatched frame: the stream can no longer
        // be framed safely, so the only clean recovery is closing the
        // connection (the client reconnects and retries under its token).
        malformed_.fetch_add(1, std::memory_order_relaxed);
        metrics_.malformed.Increment();
        if (framed.code() == StatusCode::kUnimplemented) {
          version_mismatch_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      break;  // EOF, reset, or fatal error: peer (or shutdown) ended it.
    }
    metrics_.bytes_in.Increment(kFrameHeaderBytes + payload.size());
    // The one count of requests: every frame whose header validated,
    // whether it is then refused, shed or dispatched.
    requests_.fetch_add(1, std::memory_order_relaxed);
    metrics_.requests.Increment();
    // Effective criticality: wire bits, except ping and telemetry
    // scrapes are always critical — client pools must keep their
    // health probes flowing and operators must keep seeing a saturated
    // server, or overload becomes invisible exactly when it matters.
    Criticality crit = h.criticality();
    if (h.op == RpcOp::kPing || h.op == RpcOp::kScrapeTelemetry) {
      crit = Criticality::kCritical;
    }
    const uint64_t arrival_us = OverloadNowUs();
    uint32_t retry_after_us = 0;
    if (admission_ != nullptr &&
        !admission_->TryAcquire(crit, &retry_after_us)) {
      // Rejected at the socket edge: answer inline from the reader with
      // explicit pushback — no pool slot, no provider work, and the
      // client's retry loop gets a load-scaled retry-after hint instead
      // of a silent drop it would hammer against.
      admission_rejected_.fetch_add(1, std::memory_order_relaxed);
      metrics_.admission_rejected.Increment();
      metrics_.admission_limit.Set(static_cast<int64_t>(admission_->limit()));
      FrameHeader rh = h;
      rh.flags |= kFlagResponse | kFlagPushback;
      rh.budget_us = retry_after_us;
      WriteFrames(*conn, EncodeFrame(rh, EncodeStatusOnlyReply(
                                             h.op, Status::ResourceExhausted(
                                                       "server admission "
                                                       "limit reached"))));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      ++conn->in_flight;
    }
    // Hand the frame to the pool with its scheduling class: the wire
    // budget becomes an absolute deadline re-checked at dequeue, and a
    // shed request is still *answered* (on_shed) so the client learns
    // immediately instead of timing out. Submit blocks on a full queue,
    // which is exactly the backpressure we want per connection; false
    // means the server is shutting down and this request is dropped
    // *unread by the dispatcher* — the client sees the connection
    // close, not a lost ack.
    fleet::WorkerPool::TaskClass cls;
    cls.criticality = crit;
    cls.deadline_us = h.budget_us != 0 ? arrival_us + h.budget_us : 0;
    cls.on_shed = [this, conn, h, arrival_us] {
      RespondShed(conn, h, arrival_us);
    };
    bool submitted = pool_->Submit(
        [this, conn, h, crit, arrival_us,
         payload = std::move(payload)]() mutable {
          Dispatch(conn, h, crit, arrival_us, std::move(payload));
        },
        std::move(cls));
    if (!submitted) {
      Finish(*conn, 0);
      break;
    }
  }
  // The reader is the connection's last reference to the fd number: wait
  // for every dispatched request to finish writing (so a graceful server
  // shutdown — EOF here — cannot orphan an in-flight response), then close
  // under write_mu. Only the reader closes, so a recycled fd number can
  // never be touched by a stale thread.
  std::unique_lock<std::mutex> lock(conn->write_mu);
  conn->drained.wait(lock, [&] { return conn->in_flight == 0; });
  conn->open.store(false, std::memory_order_release);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
  lock.unlock();
  metrics_.connections.Add(-1);
}

void RpcServer::Dispatch(std::shared_ptr<Connection> conn, FrameHeader header,
                         Criticality criticality, uint64_t arrival_us,
                         Bytes payload) {
  metrics_.in_flight.Add(1);
  obs::Stopwatch timer;
  Result<Bytes> response = Bytes();
  {
    // Restore the caller's trace context from the frame header so
    // server-side spans (cloud.*, storage.*) parent under the cell
    // operation that issued this RPC — the cross-process leg of causal
    // trace propagation.
    obs::ScopedTraceContext scoped(header.trace);
    // Arm the overload context with what is LEFT of the wire budget after
    // the queue wait: the provider's gate re-checks it before touching the
    // store ("never work on dead requests"). A budget that ran out between
    // dequeue and here arms as 1µs — already expired, shed at the gate.
    OverloadContext octx;
    octx.criticality = criticality;
    if (header.budget_us != 0) {
      const uint64_t now = OverloadNowUs();
      const uint64_t deadline = arrival_us + header.budget_us;
      octx.budget_us = deadline > now ? deadline - now : 1;
    }
    ScopedOverloadContext overload_scope(octx);
    response = Serve(header.op, provider_, payload);
  }
  // A provider-side admission rejection left its retry-after hint on this
  // thread; forward it in the response header as explicit pushback.
  const uint32_t retry_after_us = TakeRetryAfterHint();
  if (!response.ok()) {
    // Undecodable payload behind a well-formed header: the stream itself
    // is still framed, but this connection's peer is speaking garbage —
    // treat like a malformed frame and drop the connection.
    malformed_.fetch_add(1, std::memory_order_relaxed);
    metrics_.malformed.Increment();
    ShutdownConnection(*conn, SHUT_RDWR);
  } else {
    FrameHeader h = header;
    h.flags |= kFlagResponse;
    h.budget_us = retry_after_us;
    if (retry_after_us != 0) h.flags |= kFlagPushback;
    WriteFrames(*conn, EncodeFrame(h, response.value()));
  }
  uint64_t elapsed = timer.ElapsedUs();
  metrics_.dispatch_us.Record(elapsed);
  metrics_.op_us[static_cast<size_t>(header.op)]->Record(elapsed);
  metrics_.in_flight.Add(-1);
  // The limiter's latency sample spans acquire (reader framing) to done,
  // so queue wait is inside it — queueing inflates the EWMA, the gradient
  // drops, the limit tightens: that feedback IS the controller. Critical
  // probes release without sampling (their near-zero latencies would drag
  // the estimates down).
  Finish(*conn, criticality == Criticality::kCritical
                    ? 0
                    : std::max<uint64_t>(1, OverloadNowUs() - arrival_us));
}

void RpcServer::RespondShed(const std::shared_ptr<Connection>& conn,
                            FrameHeader header, uint64_t arrival_us) {
  // Two ways the pool sheds: the request's own deadline ran out in the
  // queue (kDeadlineExceeded — retrying is pointless, the caller's budget
  // is gone), or CoDel aged out a background request (kResourceExhausted
  // with pushback — retry later, the queue is standing).
  const bool expired = header.budget_us != 0 &&
                       OverloadNowUs() >= arrival_us + header.budget_us;
  Status status;
  FrameHeader rh = header;
  rh.flags |= kFlagResponse;
  rh.budget_us = 0;
  if (expired) {
    shed_expired_.fetch_add(1, std::memory_order_relaxed);
    metrics_.shed_expired.Increment();
    status = Status::DeadlineExceeded("deadline expired in server queue");
  } else {
    shed_codel_.fetch_add(1, std::memory_order_relaxed);
    metrics_.shed_codel.Increment();
    status = Status::ResourceExhausted("server queue overloaded (shed)");
    rh.flags |= kFlagPushback;
    rh.budget_us = options_.admission_config.min_retry_after_us;
    if (admission_ != nullptr) {
      const uint64_t ewma = admission_->stats().ewma_latency_us;
      rh.budget_us = static_cast<uint32_t>(std::min<uint64_t>(
          options_.admission_config.max_retry_after_us,
          std::max<uint64_t>(rh.budget_us, ewma)));
    }
  }
  WriteFrames(*conn, EncodeFrame(rh, EncodeStatusOnlyReply(header.op, status)));
  // The slot was acquired at the reader edge; a shed request contributes
  // no latency sample (its sojourn measures the queue, not the service).
  Finish(*conn, 0);
}

void RpcServer::Finish(Connection& conn, uint64_t latency_us) {
  if (admission_ != nullptr) admission_->Release(latency_us);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  --conn.in_flight;
  conn.drained.notify_all();
}

void RpcServer::WriteFrames(Connection& conn, const Bytes& frames) {
  // Every response frame of a burst goes out in ONE send: with TCP_NODELAY
  // a per-response (or split header/payload) write would put each response
  // on the wire as its own packet.
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!conn.open.load(std::memory_order_acquire) || conn.fd < 0) return;
  if (!SendAll(conn.fd, frames)) {
    // Peer gone mid-write; reader will notice EOF and wind down.
    return;
  }
  metrics_.bytes_out.Increment(frames.size());
}

void RpcServer::ShutdownConnection(Connection& conn, int how) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (conn.fd < 0) return;
  if (how == SHUT_RDWR) conn.open.store(false, std::memory_order_release);
  ::shutdown(conn.fd, how);
}

}  // namespace tc::rpc
