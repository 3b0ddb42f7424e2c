// The single-client cell stack shared by the `vault` and `catchup`
// workloads: a provider behind an in-process loopback RpcServer, one
// SocketTransport wrapped in the timing decorator, and one resilient
// TrustedCell, plus the per-layer metrics both workloads derive from it.
#ifndef PERFBENCH_CELLS_H_
#define PERFBENCH_CELLS_H_

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "tc/cell/cell.h"
#include "tc/cloud/fault_injector.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"

namespace perfbench {

struct CellStack {
  tc::SimulatedClock clock{tc::MakeTimestamp(2013, 3, 1)};
  tc::cloud::CloudInfrastructure cloud;
  tc::cloud::NetworkFaultInjector injector{tc::cloud::NetworkFaultConfig{}};
  std::unique_ptr<tc::rpc::RpcServer> server;
  std::unique_ptr<tc::rpc::SocketTransport> socket;
  std::unique_ptr<TimedTransport> timed;
  tc::cell::CellDirectory directory;
  std::unique_ptr<tc::cell::TrustedCell> cell;
  tc::policy::Policy owner_policy;

  /// Builds the stack; the server runs 2 workers with otherwise default
  /// options and the client pool holds one connection.
  static tc::Result<std::unique_ptr<CellStack>> Create(
      tc::tee::DeviceClass device_class, uint64_t seed);
  ~CellStack();
};

/// Builds `stacks` stacks one after another, keeps the last, and returns
/// the median build time in seconds through `setup_s`.
tc::Result<std::unique_ptr<CellStack>> CreateTimed(
    tc::tee::DeviceClass device_class, uint64_t seed, int stacks,
    double* setup_s);

/// The cell's store/flash/channel counters at one point of a run.
struct CellCounters {
  uint64_t seals = 0;
  uint64_t full_scans = 0;
  uint64_t index_hits = 0;
  uint64_t index_dropped = 0;
  uint64_t user_bytes = 0;
  uint64_t flash_programs = 0;
  uint64_t flash_erases = 0;
  uint64_t attempts = 0;
  uint64_t ops_ok = 0;
  uint64_t breaker_rejections = 0;
  uint64_t deferred = 0;
  uint64_t drained = 0;
  uint64_t rpc_bytes = 0;
  uint64_t rpc_requests = 0;
  uint64_t cloud_bytes = 0;

  static CellCounters Read(CellStack& stack);
  CellCounters Minus(const CellCounters& before) const;
};

/// Count metrics over a fixed number of cell ops, so that a fixed seed
/// repeats them exactly: tee.seals_per_op, storage.*_per_op,
/// storage.write_amp, net.attempts_per_op, rpc.bytes_per_op,
/// rpc.requests_per_cell_op, cloud.bytes_per_user_byte.
void SetCellCountLayers(Outcome* out, const CellCounters& delta,
                        uint64_t ops, uint64_t user_bytes, size_t page_size);

/// Cell ops of a measured region. `*_inner_us` sum the tee and storage
/// time (TeeStorageUs deltas) recorded inside the traced stores/fetches.
struct CellOps {
  uint64_t stores = 0;
  uint64_t fetches = 0;
  uint64_t traced_stores = 0;
  uint64_t traced_fetches = 0;
  double store_inner_us = 0;
  double fetch_inner_us = 0;
};

/// Sum, in microseconds, of the tee seal/unseal and storage append/get
/// histograms; read around a traced op to split its time by layer.
double TeeStorageUs();

/// Timing and ratio metrics of the cell layers over the whole measured
/// region: tee/storage/rpc/cloud/pool histograms from `reg`, the net.*
/// counters and call latencies, and cell self time per store/fetch.
void SetCellLayers(Outcome* out, const RegistryDelta& reg,
                   const CellCounters& delta, CellStack& stack,
                   const std::vector<SpanRecord>& spans, const CellOps& ops);

/// rpc, worker-pool and cloud histograms and counters from `reg`.
void SetServerLayers(Outcome* out, const RegistryDelta& reg);

/// Layer probes run after the measured region: AEAD seal/open at
/// `payload` bytes and SHA-256 throughput, plus (with a cell) the owner
/// policy evaluation.
void RunProbes(Outcome* out, size_t payload, CellStack* stack);

}  // namespace perfbench

#endif  // PERFBENCH_CELLS_H_
