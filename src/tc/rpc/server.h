#ifndef TC_RPC_SERVER_H_
#define TC_RPC_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tc/cloud/infrastructure.h"
#include "tc/common/status.h"
#include "tc/fleet/worker_pool.h"
#include "tc/net/transport.h"
#include "tc/obs/metrics.h"
#include "tc/rpc/wire.h"

namespace tc::rpc {

/// Standalone multi-threaded TCP front end for a CloudInfrastructure.
///
/// Runtime shape (tellstore/jubilant-db style listener/worker split):
///
///   accept thread ──► per-connection reader thread ──► WorkerPool
///        │                    │  frames the byte stream      │ dispatch
///        │                    │  (header validate, payload   │ onto the
///        │                    │   bounded-read)              ▼ RPC surface
///        │                    └──► malformed frame: close    CloudInfra
///        │                         the connection cleanly    (fault
///        └── port 0 = ephemeral, SO_REUSEADDR, TCP_NODELAY   injector
///                                                            lives HERE)
///
/// Responses are written back under a per-connection write mutex and may
/// interleave out of request order — the echoed request_id is the match
/// key, which is what makes client-side pipelining work.
///
/// The NetworkFaultInjector stays attached to the CloudInfrastructure
/// behind this server, so a socket deployment experiences exactly the
/// same (seed, ordinal, op)-deterministic fault schedule as the
/// in-process path: the wire adds a real transport without perturbing
/// the chaos model.
///
/// Graceful shutdown: stop accepting, half-close every connection's read
/// side (in-flight requests keep draining through the pool and their
/// responses are still written), drain the pool, then close and join.
/// Every request that was fully read is answered or the connection is
/// gone; none are silently dropped mid-dispatch.
///
/// Overload control (PR 10): with `admission` enabled the server runs a
/// gradient AdmissionController at the socket edge — a request the limiter
/// turns away is answered *inline from the reader thread* with a
/// kResourceExhausted status-only response whose header carries the
/// pushback flag and a retry-after hint, so rejection costs no pool slot.
/// kPing and kScrapeTelemetry are forced kCritical (always admitted):
/// client pools keep probing and operators keep observing a saturated
/// server. Admitted requests enter the WorkerPool with their wire
/// criticality band and an absolute deadline derived from the frame's
/// budget_us; a request that dies in the queue (or is CoDel-shed as
/// background) is answered cheaply by the pool's on_shed hook without ever
/// touching the provider.
///
/// Metrics (tc::obs global registry):
///   rpc.server.accepted        counter  connections accepted
///   rpc.server.requests        counter  frames whose header validated,
///                                       refused and shed ones included
///                                       (Stats::requests, process-wide)
///   rpc.server.malformed       counter  frames rejected (conn closed)
///   rpc.server.bytes_in/out    counter  payload+header bytes
///   rpc.server.in_flight       gauge    requests inside the pool
///   rpc.server.dispatch_us     histogram  read-to-response-written
///   rpc.server.<op>_us         histogram  the same, per RpcOpName
///   rpc.server.admission_rejected counter  requests refused at the edge
///   rpc.server.admission_limit gauge    current concurrency limit
///   rpc.server.shed_expired    counter  answered dead from the queue
///   rpc.server.shed_codel      counter  background shed by queue aging
class RpcServer {
 public:
  struct Options {
    uint16_t port = 0;  ///< 0 = OS-assigned ephemeral port.
    size_t worker_threads = 4;
    size_t queue_capacity = 256;
    uint32_t max_frame_bytes = kMaxPayloadBytes;
    /// Adaptive admission at the socket edge (off = accept everything,
    /// the pre-overload-plane behavior).
    bool admission = false;
    AdmissionConfig admission_config{};
    /// CoDel queue aging in the worker pool (sheds background work while
    /// queue sojourn stays above target).
    bool codel = false;
    uint64_t codel_target_us = 5000;
    uint64_t codel_interval_us = 100000;
  };

  struct Stats {
    uint64_t accepted = 0;
    uint64_t requests = 0;  ///< Validated frames, as rpc.server.requests.
    uint64_t malformed = 0;   ///< Bad frames (each closed its connection).
    uint64_t version_mismatch = 0;
    uint64_t admission_rejected = 0;  ///< Refused at the socket edge.
    uint64_t shed_expired = 0;  ///< Answered dead (deadline passed in queue).
    uint64_t shed_codel = 0;    ///< Background shed by CoDel aging.
  };

  RpcServer(cloud::CloudInfrastructure* cloud, const Options& options);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and spawns the accept loop. Fails (kUnavailable) when
  /// loopback sockets are unavailable in the environment.
  Status Start();

  /// Graceful shutdown; idempotent. See class comment for ordering.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (valid after Start; stable across the server's life).
  uint16_t port() const { return port_; }
  Stats stats() const;

  /// True when the environment supports binding a loopback TCP socket
  /// (some sandboxes forbid AF_INET entirely). Probed once per process.
  static bool LoopbackAvailable();

  /// The edge admission controller (nullptr when Options.admission is off
  /// or the server has not started). Outlives Shutdown for post-run stats.
  AdmissionController* admission_controller() { return admission_.get(); }

 private:
  struct Connection {
    int fd = -1;
    std::thread reader;
    std::mutex write_mu;   ///< Serializes response writes, shutdown, close.
    std::atomic<bool> open{true};
    size_t in_flight = 0;  ///< Dispatches not yet answered (write_mu).
    std::condition_variable drained;  ///< in_flight reached 0.
  };

  /// Registry handles, resolved once (names in the class comment).
  struct Metrics {
    Metrics();
    obs::Counter& accepted;
    obs::Gauge& connections;
    obs::Counter& requests;
    obs::Counter& malformed;
    obs::Counter& bytes_in;
    obs::Counter& bytes_out;
    obs::Gauge& in_flight;
    obs::Histogram& dispatch_us;
    std::array<obs::Histogram*, kRpcOpCount> op_us;  ///< By RpcOp.
    obs::Counter& admission_rejected;
    obs::Gauge& admission_limit;
    obs::Counter& shed_expired;
    obs::Counter& shed_codel;
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  /// Serves one request frame via the op table, writes the response frame.
  /// One pool task per request so expensive provider ops pipelined on the
  /// same connection still execute in parallel across the pool.
  /// `criticality` is the effective class (wire bits, ping/scrape forced
  /// critical); `arrival_us` is when the reader framed the request (the
  /// origin of its absolute deadline and of its admission latency sample).
  void Dispatch(std::shared_ptr<Connection> conn, FrameHeader header,
                Criticality criticality, uint64_t arrival_us, Bytes payload);
  /// Answers a request the pool shed (expired deadline or CoDel aging)
  /// without executing it, and returns its admission slot.
  void RespondShed(const std::shared_ptr<Connection>& conn,
                   FrameHeader header, uint64_t arrival_us);
  /// Ends a request the reader handed off: returns its admission slot
  /// (`latency_us` 0 = no limiter sample) and counts it out of in_flight.
  void Finish(Connection& conn, uint64_t latency_us);
  /// Writes pre-encoded response frame bytes in ONE send under write_mu.
  void WriteFrames(Connection& conn, const Bytes& frames);
  /// Wakes the reader and suppresses future writes. `how` is SHUT_RD for
  /// graceful drain (responses still flow) or SHUT_RDWR for abort. Never
  /// closes the fd — only the connection's own reader does that, which is
  /// what makes fd-number reuse by other threads safe.
  void ShutdownConnection(Connection& conn, int how);

  /// The provider endpoints the op table dispatches onto — the same edge
  /// an in-process cell calls.
  net::InProcessTransport provider_;
  Options options_;
  Metrics metrics_;
  /// Atomic: Shutdown() retires it (exchange to -1) while the accept
  /// thread is reading it for the next accept().
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::unique_ptr<fleet::WorkerPool> pool_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;

  std::unique_ptr<AdmissionController> admission_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> malformed_{0};
  std::atomic<uint64_t> version_mismatch_{0};
  std::atomic<uint64_t> admission_rejected_{0};
  std::atomic<uint64_t> shed_expired_{0};
  std::atomic<uint64_t> shed_codel_{0};
};

}  // namespace tc::rpc

#endif  // TC_RPC_SERVER_H_
