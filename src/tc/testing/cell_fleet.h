#ifndef TC_TESTING_CELL_FLEET_H_
#define TC_TESTING_CELL_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tc/cell/cell.h"
#include "tc/cell/directory.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/clock.h"
#include "tc/common/result.h"
#include "tc/fleet/worker_pool.h"

namespace tc::testing {

/// Workload knobs for a full-stack fleet batch: K *real* TrustedCells
/// (TEE + encrypted store + database + policy), each storing and
/// re-fetching a handful of documents through a shared worker pool.
///
/// Where FleetRunner reproduces only the cloud traffic pattern of a cell
/// (for Linky-scale throughput sweeps), CellFleet drives the entire
/// vertical stack — which is what exercises causal trace propagation end
/// to end: the batch's root span must parent every task, cell, storage
/// and cloud span the operation produces, across the worker-pool thread
/// hop.
struct CellFleetOptions {
  size_t cells = 4;          ///< TrustedCells driven this batch.
  size_t threads = 2;        ///< Worker threads sharing the cells.
  size_t docs_per_cell = 2;  ///< Documents stored + fetched per cell.
  size_t payload_bytes = 96; ///< Document payload size.
  uint64_t seed = 1;         ///< Payload streams derive from this.
};

/// Outcome of one full-stack batch. `trace_id` is the causal identity of
/// the whole operation: every span the batch emitted — on any thread, in
/// any layer — carries it, so an exporter can reassemble the single
/// connected tree rooted at "fleet/put_batch".
struct CellFleetReport {
  uint64_t trace_id = 0;
  size_t cells_ok = 0;
  size_t cells_failed = 0;
  uint64_t docs_stored = 0;
  uint64_t docs_fetched = 0;
  /// Per-cell outcome, indexed like the cells (error propagation is per
  /// cell: one failing cell never aborts the batch).
  std::vector<Status> cell_status;
};

/// Owns a directory, a simulated clock and K TrustedCells against the
/// given cloud; PutBatch() runs one traced store+fetch batch across all
/// of them.
class CellFleet {
 public:
  CellFleet(cloud::CloudInfrastructure* cloud,
            const CellFleetOptions& options);
  ~CellFleet();

  CellFleet(const CellFleet&) = delete;
  CellFleet& operator=(const CellFleet&) = delete;

  /// Creates the cells on first use (outside any trace, so provisioning
  /// noise never pollutes the batch's span tree), then opens the root
  /// "fleet/put_batch" span and submits one store+fetch task per cell to
  /// the pool. Each stored document is immediately fetched back and
  /// verified byte-for-byte. The returned report carries the root span's
  /// trace id.
  Result<CellFleetReport> PutBatch();

  /// The live cells (valid after the first PutBatch).
  const std::vector<std::unique_ptr<cell::TrustedCell>>& cells() const {
    return cells_;
  }

 private:
  Status EnsureCells();
  /// One cell's share of the batch: store docs_per_cell documents, fetch
  /// each back, verify. Runs on a pool worker under the restored batch
  /// context.
  void RunCell(size_t cell_index, Status* status, uint64_t* stored,
               uint64_t* fetched);

  cloud::CloudInfrastructure* cloud_;
  CellFleetOptions options_;
  SimulatedClock clock_;
  cell::CellDirectory directory_;
  std::vector<std::unique_ptr<cell::TrustedCell>> cells_;
};

}  // namespace tc::testing

#endif  // TC_TESTING_CELL_FLEET_H_
