#ifndef TC_RPC_WIRE_HARNESS_H_
#define TC_RPC_WIRE_HARNESS_H_

#include <memory>

#include "tc/cloud/infrastructure.h"
#include "tc/net/transport.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"

namespace tc::rpc {

/// Per-fixture switch that reruns an existing test suite over real
/// loopback sockets.
///
/// Usage in a test body (declare AFTER the cloud + injector so it is torn
/// down first):
///
///   cloud::CloudInfrastructure cloud(opts);
///   rpc::WireHarness wire(&cloud);
///   options.transport = wire.transport();   // nullptr => in-process
///
/// When TC_TRANSPORT=socket is set in the environment (the *_wire ctest
/// legs), the harness spins up an RpcServer on an ephemeral loopback port
/// in front of `cloud` and hands out a SocketTransport; every channel the
/// fleet/cell builds then crosses a real TCP connection. Otherwise
/// transport() returns nullptr and the suite runs exactly as before —
/// the deterministic in-process default costs nothing.
///
/// The NetworkFaultInjector attached to `cloud` keeps working on the
/// socket path unchanged: it lives inside the provider's one edge step,
/// which the server dispatches onto exactly as InProcessTransport calls
/// it, so fault decisions remain a pure function of (seed, ordinal, op)
/// regardless of transport. Every TrustedCell honours its
/// Config::transport, resilient or not, so a suite's non-resilient cells
/// cross the socket too.
class WireHarness {
 public:
  struct Options {
    size_t server_threads = 4;
    size_t client_connections = 2;
    uint64_t request_timeout_ms = 20000;
    Options() {}
  };

  explicit WireHarness(cloud::CloudInfrastructure* cloud,
                       const Options& options = {});
  ~WireHarness();

  WireHarness(const WireHarness&) = delete;
  WireHarness& operator=(const WireHarness&) = delete;

  /// SocketTransport when TC_TRANSPORT=socket and loopback works;
  /// nullptr otherwise (callers pass it straight through — nullptr means
  /// "default in-process path").
  net::CloudTransport* transport();

  /// True when the environment asked for the socket leg.
  static bool SocketRequested();
  /// Non-null reason string when the socket leg was requested but cannot
  /// run here (no loopback). Tests GTEST_SKIP() with it.
  static const char* SkipReason();

  RpcServer* server() { return server_.get(); }

 private:
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<SocketTransport> transport_;
};

}  // namespace tc::rpc

#endif  // TC_RPC_WIRE_HARNESS_H_
