#include "tc/testing/wire_harness.h"

#include <cstdlib>
#include <cstring>

#include "tc/common/macros.h"

namespace tc::testing {

bool WireHarness::SocketRequested() {
  const char* v = std::getenv("TC_TRANSPORT");
  return v != nullptr && std::strcmp(v, "socket") == 0;
}

const char* WireHarness::SkipReason() {
  if (!SocketRequested()) return nullptr;
  if (!rpc::RpcServer::LoopbackAvailable()) {
    return "TC_TRANSPORT=socket requested but loopback TCP sockets are "
           "unavailable in this environment";
  }
  return nullptr;
}

WireHarness::WireHarness(cloud::CloudInfrastructure* cloud,
                         const Options& options) {
  if (!SocketRequested() || !rpc::RpcServer::LoopbackAvailable()) return;
  rpc::RpcServer::Options server_options;
  server_options.worker_threads = options.server_threads;
  server_ = std::make_unique<rpc::RpcServer>(cloud, server_options);
  Status started = server_->Start();
  TC_CHECK(started.ok());  // LoopbackAvailable() was probed above.
  rpc::RpcClientPool::Options pool_options;
  pool_options.connections = options.client_connections;
  pool_options.request_timeout_ms = options.request_timeout_ms;
  transport_ = std::make_unique<rpc::SocketTransport>(
      "127.0.0.1", server_->port(), pool_options);
}

WireHarness::~WireHarness() {
  // Client first (fail outstanding calls), then the server.
  transport_.reset();
  server_.reset();
}

net::CloudTransport* WireHarness::transport() { return transport_.get(); }

}  // namespace tc::testing
